package core

import (
	"math/rand"
	"testing"
	"time"
)

// poolFuzzer builds a fuzzer with the snapshot pool enabled.
func poolFuzzer(t *testing.T, target string, budget int64, seed int64) *Fuzzer {
	t.Helper()
	inst := launch(t, target)
	return New(inst.Agent, inst.Spec, Options{
		Policy:     PolicyAggressive,
		Seeds:      inst.Seeds(),
		Rand:       rand.New(rand.NewSource(seed)),
		Dict:       inst.Info.Dict,
		SnapBudget: budget,
	})
}

func TestPoolEnabledOnlyWithSlotExecutor(t *testing.T) {
	f := poolFuzzer(t, "lightftp", 8<<20, 1)
	if !f.PoolEnabled() {
		t.Fatal("pool should enable on a netemu agent with a budget")
	}
	inst := launch(t, "lightftp")
	f2 := New(inst.Agent, inst.Spec, Options{
		Policy: PolicyAggressive,
		Seeds:  inst.Seeds(),
		Rand:   rand.New(rand.NewSource(1)),
	})
	if f2.PoolEnabled() {
		t.Fatal("pool must stay off without a budget")
	}
}

func TestPoolServesRepeatedPrefixes(t *testing.T) {
	f := poolFuzzer(t, "lightftp", 8<<20, 1)
	if err := f.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := f.PoolStats()
	if st.Hits == 0 {
		t.Fatalf("pool never hit: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("pool never created a snapshot: %+v", st)
	}
	if f.SnapshotExecs() == 0 {
		t.Fatal("no snapshot-resumed executions")
	}
	if f.Coverage() == 0 || len(f.Queue) == 0 {
		t.Fatal("pool campaign found nothing")
	}
}

// TestPoolReducesPrefixReexecs is the tentpole claim at unit scale: at
// equal virtual time and equal seed, the pool strictly reduces full-prefix
// re-executions versus the single-slot baseline — snapshot rounds are
// served by cache hits or chained creations instead of re-running the
// prefix from the root.
func TestPoolReducesPrefixReexecs(t *testing.T) {
	const dur = 5 * time.Second
	single := poolFuzzer(t, "lightftp", 0, 1) // budget 0: single-slot mode
	if err := single.RunFor(dur); err != nil {
		t.Fatal(err)
	}
	pooled := poolFuzzer(t, "lightftp", 8<<20, 1)
	if err := pooled.RunFor(dur); err != nil {
		t.Fatal(err)
	}
	if single.PoolEnabled() || !pooled.PoolEnabled() {
		t.Fatal("configuration mixup")
	}
	if pooled.FullPrefixReexecs() >= single.FullPrefixReexecs() {
		t.Fatalf("pool did not reduce full-prefix re-execs: pool %d >= single %d",
			pooled.FullPrefixReexecs(), single.FullPrefixReexecs())
	}
	// Sanity: the single-slot baseline pays one prefix re-exec per
	// snapshot round, so its count dwarfs the pool's.
	if single.FullPrefixReexecs() == 0 {
		t.Fatal("baseline never created a snapshot")
	}
}

func TestPoolStaysUnderBudget(t *testing.T) {
	const budget = 256 << 10 // small enough to force evictions
	f := poolFuzzer(t, "lightftp", budget, 1)
	if err := f.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := f.PoolStats()
	if st.PeakBytes > budget {
		t.Fatalf("pool peak %d exceeded budget %d", st.PeakBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("tight budget should have evicted: %+v", st)
	}
}

func TestPoolCampaignDeterministic(t *testing.T) {
	run := func() (int, uint64, poolTriple) {
		f := poolFuzzer(t, "lightftp", 1<<20, 7)
		if err := f.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		st := f.PoolStats()
		return f.Coverage(), f.Execs(), poolTriple{st.Hits, st.Misses, st.Evictions}
	}
	c1, e1, p1 := run()
	c2, e2, p2 := run()
	if c1 != c2 || e1 != e2 || p1 != p2 {
		t.Fatalf("pooled campaign not deterministic: (%d,%d,%v) vs (%d,%d,%v)",
			c1, e1, p1, c2, e2, p2)
	}
}

// poolTriple is a comparable triple for the determinism check.
type poolTriple struct{ hits, misses, evictions uint64 }

// TestResolvePrefixMemoizesDigests pins the hash-free repeat-round path:
// the first pool query for an (entry, position) pays the streaming scan and
// memoizes the digest; once the prefix is pooled, repeat queries resolve
// through LookupDigest without hashing (counted as DigestHits).
func TestResolvePrefixMemoizesDigests(t *testing.T) {
	f := poolFuzzer(t, "lightftp", 8<<20, 1)
	inst := launch(t, "lightftp")
	e := &QueueEntry{Input: inst.Seeds()[0].Clone()}
	base := e.Input.Clone()
	base.SnapshotAt = 2

	hit, _, d := f.resolvePrefix(e, base, 2)
	if hit != nil {
		t.Fatal("empty pool cannot hit")
	}
	if _, ok := e.prefixDigests[2]; !ok {
		t.Fatal("digest not memoized after first resolve")
	}
	f.pool.Insert(d, f.pool.AllocSlot(), 2, 4096, time.Millisecond)

	hit, parent, d2 := f.resolvePrefix(e, base, 2)
	if hit == nil || parent != nil || d2 != d {
		t.Fatalf("memoized resolve: hit=%v parent=%v", hit, parent)
	}
	if st := f.PoolStats(); st.DigestHits != 1 {
		t.Fatalf("repeat resolve should be a digest hit, stats %+v", st)
	}
}

func TestPoolCrashingPrefixFallsBack(t *testing.T) {
	// proftpd's crash sits behind a prefix; the aggressive policy will
	// place markers past crashing positions. The pool path must fall back
	// like the single-slot path instead of erroring or stalling.
	f := poolFuzzer(t, "proftpd", 4<<20, 3)
	if err := f.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Coverage() == 0 {
		t.Fatal("no coverage on proftpd")
	}
}
