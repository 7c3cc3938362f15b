package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/coverage"
)

// cullWatch installs a pick hook that holds every pick to CheckCull and
// counts what the run exercised: picks, and entries that lost their favored
// bit from one pick to the next (a withdrawn choice that stayed withdrawn).
type cullWatch struct {
	picks     int
	withdrawn int
	was       map[*QueueEntry]bool
}

func watchCull(t *testing.T) *cullWatch {
	t.Helper()
	w := &cullWatch{was: make(map[*QueueEntry]bool)}
	SetPickHook(func(f *Fuzzer) {
		w.picks++
		if err := CheckCull(f); err != nil {
			t.Fatalf("pick %d: %v", w.picks, err)
		}
		for _, e := range f.Queue {
			if w.was[e] && !e.Favored {
				w.withdrawn++
			}
			w.was[e] = e.Favored
		}
	})
	t.Cleanup(func() { SetPickHook(nil) })
	return w
}

// At every pick of a solo campaign the favored set must be the one the full
// cover walk picks from the same top-rated table: on tinydtls, where every
// exec runs from the root, and on bftpd with the aggressive policy and a
// snapshot pool, whose lazy trims re-compete entries at lower cost.
func TestCullMatchesCoverWalk(t *testing.T) {
	for _, tc := range []struct {
		target string
		policy Policy
		budget int64
		virt   time.Duration
	}{
		{"tinydtls", PolicyNone, 0, 12 * time.Second},
		{"bftpd", PolicyAggressive, 4 << 20, 8 * time.Second},
	} {
		t.Run(tc.target, func(t *testing.T) {
			w := watchCull(t)
			inst := launch(t, tc.target)
			f := New(inst.Agent, inst.Spec, Options{
				Policy:     tc.policy,
				Seeds:      inst.Seeds(),
				SnapBudget: tc.budget,
				Rand:       rand.New(rand.NewSource(1)),
				Dict:       inst.Info.Dict,
			})
			if err := f.RunFor(tc.virt); err != nil {
				t.Fatal(err)
			}
			trimmed := 0
			for _, e := range f.Queue {
				if e.Trimmed {
					trimmed++
				}
			}
			t.Logf("%d picks, %d entries, %d top-rated edges, %d trimmed, %d withdrawn",
				w.picks, len(f.Queue), len(f.topRated), trimmed, w.withdrawn)
			if w.picks < 100 || w.withdrawn == 0 || trimmed == 0 {
				t.Fatal("the run exercised too little of the cull to tell")
			}
		})
	}
}

// A pick that repairs a dirty table allocates nothing once the table has
// capacity: the winners of a real campaign's edges change hands before each
// pick, and the cull re-decides them in place.
func TestCullSteadyStateAllocs(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 3)
	if err := f.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Two rivals for a favored entry's edges, each undercutting the other in
	// turn: every edge of theirs changes winner at every round, and the
	// choice the favored entry held passes from one rival to the other.
	f.cullQueue()
	i := slices.IndexFunc(f.Queue, func(e *QueueEntry) bool { return e.Favored })
	src := f.Queue[i]
	a := &QueueEntry{ID: len(f.Queue), Cov: src.Cov, ExecTime: time.Millisecond}
	b := &QueueEntry{ID: len(f.Queue) + 1, Cov: src.Cov}
	f.Queue = append(f.Queue, a, b)
	f.updateTopRated(a)
	f.pickEntry()
	if src.Favored || !a.Favored {
		t.Fatal("the rival did not take the favored entry's choice (test premise broken)")
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.ExecTime = a.ExecTime - 1
		f.updateTopRated(b)
		a, b = b, a
		f.pickEntry()
	})
	if allocs != 0 {
		t.Fatalf("a pick repairing %d edges allocated %.1f times", len(src.Cov), allocs)
	}
	if err := CheckCull(f); err != nil {
		t.Fatal(err)
	}
	if !a.Favored || b.Favored {
		t.Fatal("the choice did not follow the cheaper rival")
	}
}

// FuzzCullMatchesCoverWalk drives the top-rated table with random entries
// over a small edge range, trims that lower an entry's fav factor, and picks,
// and holds the favored set to the full cover walk at each pick. Each byte
// selects an operation; the bytes after it are its operands:
//
//	0, 1: queue an entry: n, then n edges (edgeOf), then its cost
//	2:    trim: which entry, then by how much its cost falls
//	3:    pick
func FuzzCullMatchesCoverWalk(f *testing.F) {
	// 48 edges, four to a bitset word, so the cull sweeps within words and
	// across them.
	edgeOf := func(b int) uint32 { return uint32(b%48) << 4 }
	f.Add([]byte{0, 2, 5, 9, 7, 3, 1, 3, 5, 7, 9, 4, 3, 2, 0, 5, 3})
	f.Add([]byte{0, 1, 40, 9, 0, 2, 10, 40, 8, 3, 0, 1, 10, 1, 3, 2, 1, 7, 3})
	s, _ := stubSpecInput()
	f.Fuzz(func(t *testing.T, ops []byte) {
		fz := New(&stubExec{loc: 1}, s, Options{Rand: rand.New(rand.NewSource(1))})
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		check := func() {
			fz.cullQueue()
			if err := CheckCull(fz); err != nil {
				t.Fatal(err)
			}
		}
		for len(ops) > 0 {
			switch next() % 4 {
			case 0, 1:
				e := &QueueEntry{ID: len(fz.Queue)}
				for n := 1 + next()%8; n > 0; n-- {
					e.Cov = append(e.Cov, coverage.BucketHit{Index: edgeOf(next()), Bucket: 1})
				}
				e.ExecTime = time.Duration(1 + next())
				fz.Queue = append(fz.Queue, e)
				fz.updateTopRated(e)
			case 2:
				if len(fz.Queue) == 0 {
					continue
				}
				e := fz.Queue[next()%len(fz.Queue)]
				e.ExecTime = max(1, e.ExecTime-time.Duration(next()))
				fz.updateTopRated(e)
			case 3:
				check()
			}
		}
		check()
	})
}
