// Package campaign is the lockheld fixture: its import path is exactly
// repro/internal/campaign, one of the gated broker/service/store packages.
package campaign

import (
	"sync"
	"time"
)

type Broker struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	wg  sync.WaitGroup
	ch  chan int
	out chan int
}

func (b *Broker) sendUnderLock() {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while b\.mu is held`
	b.mu.Unlock()
}

func (b *Broker) recvUnderDeferredLock() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want `channel receive while b\.mu is held`
}

func (b *Broker) sendAfterUnlock() {
	b.mu.Lock()
	n := 1
	b.mu.Unlock()
	b.ch <- n // lock released: fine
}

func (b *Broker) waitUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wg.Wait() // want `sync\.WaitGroup\.Wait while b\.mu is held`
}

func (b *Broker) sleepUnderRLock() {
	b.rw.RLock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while b\.rw is held`
	b.rw.RUnlock()
}

func (b *Broker) blockingSelectUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want `blocking select while b\.mu is held`
	case v := <-b.ch:
		_ = v
	case b.out <- 1:
	}
}

func (b *Broker) nonBlockingSelectUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-b.ch:
		_ = v
	default:
	}
}

func (b *Broker) lockInBranch(cond bool) {
	if cond {
		b.mu.Lock()
		b.ch <- 1 // want `channel send while b\.mu is held`
		b.mu.Unlock()
	}
}

func (b *Broker) goroutineEscapesRegion() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.ch <- 1 // runs after Unlock on its own goroutine: fine
	}()
}

func (b *Broker) reviewedBlockingSend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1 //nyx:blocking fixture-reviewed: buffered control channel, never full
}

func (b *Broker) noLockAtAll() {
	b.ch <- 1
	<-b.ch
	b.wg.Wait()
}

// emit blocks two calls deep: only the transitive may-block fact makes the
// send visible to a caller holding the lock.
func (b *Broker) emit() { b.relay() }

func (b *Broker) relay() { b.out <- 1 }

func (b *Broker) transitiveSendUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.emit() // want `call that may block: campaign\.\(\*Broker\)\.emit → campaign\.\(\*Broker\)\.relay \(channel send at .*\) while b\.mu is held`
}

func (b *Broker) transitiveSendAfterUnlock() {
	b.mu.Lock()
	n := 1
	b.mu.Unlock()
	_ = n
	b.emit() // lock released: fine
}

func (b *Broker) reviewedTransitiveSend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.emit() //nyx:blocking fixture-reviewed: out is buffered and drained by the owner
}
