package core

import "fmt"

// What the cull's differential tests need of it, the external campaign test
// among them: a hook at every pick and the full cover walk to check it by.

// SetPickHook makes every fuzzer call fn at each pick, right after the cull,
// until SetPickHook(nil). Set it only while no fuzzer runs.
func SetPickHook(fn func(*Fuzzer)) { pickHook = fn }

// CheckCull holds f's favored set, as the cull left it, to AFL's cull_queue
// run anew over f's top-rated table: a greedy walk over the edges in
// ascending order, where an edge not yet covered by the Cov of an entry the
// walk chose makes its winner favored. It also checks the state the cull
// keeps per edge against the walk, and that every Cov index of a queued
// entry is a top-rated edge, which is what lets a new edge start uncovered.
func CheckCull(f *Fuzzer) error {
	if f.dirtyLo < f.dirtyHi {
		return fmt.Errorf("cull left dirty words [%d, %d)", f.dirtyLo, f.dirtyHi)
	}
	var covered [cullWords]uint64
	isCovered := func(idx uint32) bool { return covered[idx>>6]&(1<<(idx&63)) != 0 }
	favored := make(map[*QueueEntry]bool)
	for _, r := range f.topRated {
		var want uint32 // in the form of topEdge.fav
		if !isCovered(r.edge) {
			want = r.top + 1
			e := f.Queue[r.top]
			favored[e] = true
			for _, h := range e.Cov {
				covered[h.Index>>6] |= 1 << (h.Index & 63)
			}
		}
		if r.fav != want || (r.cover == 0) != (want != 0) {
			return fmt.Errorf("edge %d: cull chose entry %d with cover %d, the walk entry %d (-1: none)",
				r.edge, int(r.fav)-1, r.cover, int(want)-1)
		}
	}
	for _, e := range f.Queue {
		if e.Favored != favored[e] {
			return fmt.Errorf("entry %d of %d: Favored %v, the walk says %v", e.ID, len(f.Queue), e.Favored, favored[e])
		}
		for _, h := range e.Cov {
			if _, ok := f.findTop(h.Index); !ok {
				return fmt.Errorf("entry %d covers edge %d (bucket %d), which is not top-rated", e.ID, h.Index, h.Bucket)
			}
		}
	}
	return nil
}
