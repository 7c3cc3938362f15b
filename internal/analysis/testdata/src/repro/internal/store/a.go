// Package store is the lockheld fixture: its import path is exactly
// repro/internal/store, one of the gated service/store packages.
package store

import (
	"sync"
	"time"
)

type Bucket struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	wg  sync.WaitGroup
	ch  chan int
	out chan int
}

func (b *Bucket) sendUnderLock() {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while b\.mu is held`
	b.mu.Unlock()
}

func (b *Bucket) recvUnderDeferredLock() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want `channel receive while b\.mu is held`
}

func (b *Bucket) sendAfterUnlock() {
	b.mu.Lock()
	n := 1
	b.mu.Unlock()
	b.ch <- n // lock released: fine
}

func (b *Bucket) waitUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wg.Wait() // want `sync\.WaitGroup\.Wait while b\.mu is held`
}

func (b *Bucket) sleepUnderRLock() {
	b.rw.RLock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while b\.rw is held`
	b.rw.RUnlock()
}

func (b *Bucket) blockingSelectUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want `blocking select while b\.mu is held`
	case v := <-b.ch:
		_ = v
	case b.out <- 1:
	}
}

func (b *Bucket) nonBlockingSelectUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-b.ch:
		_ = v
	default:
	}
}

func (b *Bucket) lockInBranch(cond bool) {
	if cond {
		b.mu.Lock()
		b.ch <- 1 // want `channel send while b\.mu is held`
		b.mu.Unlock()
	}
}

func (b *Bucket) goroutineEscapesRegion() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.ch <- 1 // runs after Unlock on its own goroutine: fine
	}()
}

func (b *Bucket) reviewedBlockingSend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1 //nyx:blocking fixture-reviewed: buffered control channel, never full
}

func (b *Bucket) noLockAtAll() {
	b.ch <- 1
	<-b.ch
	b.wg.Wait()
}

// emit blocks two calls deep: only the transitive may-block fact makes the
// send visible to a caller holding the lock.
func (b *Bucket) emit() { b.relay() }

func (b *Bucket) relay() { b.out <- 1 }

func (b *Bucket) transitiveSendUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.emit() // want `call that may block: store\.\(\*Bucket\)\.emit → store\.\(\*Bucket\)\.relay \(channel send at .*\) while b\.mu is held`
}

func (b *Bucket) transitiveSendAfterUnlock() {
	b.mu.Lock()
	n := 1
	b.mu.Unlock()
	_ = n
	b.emit() // lock released: fine
}

func (b *Bucket) reviewedTransitiveSend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.emit() //nyx:blocking fixture-reviewed: out is buffered and drained by the owner
}
