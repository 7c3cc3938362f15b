// Package lodep is a dependency fixture for lockheld's nesting tests: it
// owns a package-level mutex that Acquire takes one call further down, in
// enter, so only fact propagation shows a caller holding a lock across
// Acquire that it takes another.
package lodep

import "sync"

// Mu is the mutex enter takes.
var Mu sync.Mutex

// Acquire takes and releases Mu via an internal helper.
func Acquire() { enter() }

func enter() {
	Mu.Lock()
	Mu.Unlock()
}
