package baseline

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// AgamottoManager reimplements Agamotto's incremental checkpointing design
// for the Figure 6 comparison: snapshots that each store the pages dirtied
// since their parent, and restores that discover dirty pages by walking the
// full bitmap (no dirty stack) — the design points §5.3 contrasts with
// Nyx-Net's single recreated snapshot. Figure 6 checkpoints and restores
// along one line of snapshots with an unlimited budget, so Agamotto's
// branching between tree nodes and its LRU eviction are not modelled.
type AgamottoManager struct {
	npages int
	pages  [][]byte
	dirty  []byte // bitmap only: Agamotto has no dirty stack

	active *agNode // snapshot the VM currently derives from
}

type agNode struct {
	parent *agNode
	delta  map[uint32][]byte // pages as of this snapshot, differing from parent
}

// ErrNoCheckpoint is returned when restoring without any checkpoint.
var ErrNoCheckpoint = errors.New("agamotto: no checkpoint taken")

// NewAgamotto creates a manager for a VM with npages pages.
func NewAgamotto(npages int) *AgamottoManager {
	return &AgamottoManager{
		npages: npages,
		pages:  make([][]byte, npages),
		dirty:  make([]byte, npages),
	}
}

// WritePage writes data into page pn, marking it dirty.
func (a *AgamottoManager) WritePage(pn uint32, data []byte) {
	if int(pn) >= a.npages {
		panic(fmt.Sprintf("agamotto: page %d out of range", pn))
	}
	p := a.pages[pn]
	if p == nil {
		p = make([]byte, mem.PageSize)
		a.pages[pn] = p
	}
	copy(p, data)
	a.dirty[pn] = 1
}

// ReadPage returns a copy of the content of page pn (nil = zero); the live
// page buffer keeps changing as the manager restores checkpoints.
func (a *AgamottoManager) ReadPage(pn uint32) []byte { return append([]byte(nil), a.pages[pn]...) }

// Checkpoint creates a snapshot of the current state as a child of the
// active snapshot, storing the pages dirtied since then.
func (a *AgamottoManager) Checkpoint() {
	node := &agNode{parent: a.active, delta: make(map[uint32][]byte)}
	// Agamotto walks the whole bitmap to find the delta.
	for pn := 0; pn < a.npages; pn++ {
		if a.dirty[pn] == 0 {
			continue
		}
		cp := make([]byte, mem.PageSize)
		if a.pages[pn] != nil {
			copy(cp, a.pages[pn])
		}
		node.delta[uint32(pn)] = cp
		a.dirty[pn] = 0
	}
	a.active = node
}

// lookup finds the content of page pn along the snapshot chain.
func (a *AgamottoManager) lookup(node *agNode, pn uint32) []byte {
	for n := node; n != nil; n = n.parent {
		if p, ok := n.delta[pn]; ok {
			return p
		}
	}
	return nil
}

// Restore resets the VM to the active snapshot: walk the bitmap, reset each
// dirty page from the snapshot chain.
func (a *AgamottoManager) Restore() error {
	if a.active == nil {
		return ErrNoCheckpoint
	}
	for pn := 0; pn < a.npages; pn++ {
		if a.dirty[pn] == 0 {
			continue
		}
		src := a.lookup(a.active, uint32(pn))
		dst := a.pages[pn]
		if src == nil {
			if dst != nil {
				for i := range dst {
					dst[i] = 0
				}
			}
		} else {
			if dst == nil {
				dst = make([]byte, mem.PageSize)
				a.pages[pn] = dst
			}
			copy(dst, src)
		}
		a.dirty[pn] = 0
	}
	return nil
}
