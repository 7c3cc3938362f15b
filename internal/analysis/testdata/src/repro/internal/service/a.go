// Package service is lockheld's nesting fixture: its import path is exactly
// repro/internal/service, one of the gated lock-owning packages. Taking a
// mutex counts as blocking, so every acquisition made while another mutex
// is held is reported — in either order, for two instances of one type, and
// through the call chain of lodep.Acquire — unless it was reviewed. Locks
// taken one after another are fine. A TryLock is reported itself: the
// analysis does not model the region it opens.
package service

import (
	"sync"

	"lodep"
)

var (
	muA sync.Mutex
	muB sync.Mutex
	muC sync.Mutex
	muD sync.Mutex
	muE sync.Mutex
	muF sync.Mutex
	muG sync.Mutex
)

// holdsThenAcquireDep holds muG across a call whose callee takes lodep.Mu
// one call further down.
func holdsThenAcquireDep() {
	muG.Lock()
	lodep.Acquire() // want `call that may block: lodep\.Acquire → lodep\.enter \(sync\.Mutex\.Lock at .*\) while muG is held`
	muG.Unlock()
}

// forward and reversed take muA and muB in opposite orders: the classic
// two-path deadlock, reported at both inner acquisitions.
func forward() {
	muA.Lock()
	muB.Lock() // want `sync\.Mutex\.Lock while muA is held`
	muB.Unlock()
	muA.Unlock()
}

func reversed() {
	muB.Lock()
	muA.Lock() // want `sync\.Mutex\.Lock while muB is held`
	muA.Unlock()
	muB.Unlock()
}

// consistentOne and consistentTwo agree on the order, and still nest.
func consistentOne() {
	muC.Lock()
	muD.Lock() // want `sync\.Mutex\.Lock while muC is held`
	muD.Unlock()
	muC.Unlock()
}

func consistentTwo() {
	muC.Lock()
	defer muC.Unlock()
	muD.Lock() // want `sync\.Mutex\.Lock while muC is held`
	defer muD.Unlock()
}

// reviewedNesting was reviewed at the inner acquisition.
func reviewedNesting() {
	muE.Lock()
	//nyx:blocking fixture-reviewed: muF is only ever taken here, under muE
	muF.Lock()
	muF.Unlock()
	muE.Unlock()
}

// sequential takes each lock after releasing the one before.
func sequential() {
	muE.Lock()
	muE.Unlock()
	muF.Lock()
	muF.Unlock()
	muE.Lock()
	defer muE.Unlock()
}

// relockSameClass nests two instances of one type.
type node struct {
	mu sync.Mutex
	ch chan int
}

func relockSameClass(a, b *node) {
	a.mu.Lock()
	b.mu.Lock() // want `sync\.Mutex\.Lock while a\.mu is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

// tryLockThenBlock takes its lock through the guard that counts contention
// before waiting. lockheld does not model that region, so it reports the
// TryLock instead of what follows it.
func tryLockThenBlock(n *node) (contended int) {
	if !n.mu.TryLock() { // want `n\.mu\.TryLock is not modelled by lockheld; use Lock`
		n.mu.Lock()
		contended++
	}
	defer n.mu.Unlock()
	n.ch <- 1
	return contended
}
