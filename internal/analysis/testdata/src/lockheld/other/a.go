// Package other is the lockheld negative fixture: blocking under a lock is
// only gated in broker/service/store packages, not here.
package other

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) SendUnderLockIsFineHere() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ch <- 1
}
