package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/spec"
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
	// An executor without slots gets no pool and no snapshot round, whatever
	// the budget and the policy ask for.
	s, seed := stubSpecInput()
	f3 := New(&opCostExec{loc: 1}, s, Options{
		Policy:     PolicyAggressive,
		Seeds:      []*spec.Input{seed},
		Rand:       rand.New(rand.NewSource(1)),
		SnapBudget: 8 << 20,
	})
	for i := 0; i < 5; i++ {
		if err := f3.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if f3.PoolEnabled() || f3.SnapshotExecs() != 0 || f3.Execs() <= 1 {
		t.Fatalf("executor without slots: pool %v, %d of %d execs from a snapshot",
			f3.PoolEnabled(), f3.SnapshotExecs(), f3.Execs())
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
// re-executions versus pool-off rounds — snapshot rounds are
// served by cache hits or chained creations instead of re-running the
// prefix from the root.
func TestPoolReducesPrefixReexecs(t *testing.T) {
	const dur = 5 * time.Second
	single := poolFuzzer(t, "lightftp", 0, 1) // budget 0: pool-off rounds
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
	// Sanity: pool-off rounds pay one prefix re-exec per
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
	// place markers past crashing positions. A pooled round must fall back
	// to the root instead of erroring or stalling.
	f := poolFuzzer(t, "proftpd", 4<<20, 3)
	if err := f.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Coverage() == 0 {
		t.Fatal("no coverage on proftpd")
	}
}

// TestSlotRoundCallSequence pins the one snapshot round. A pool-off
// round misses on roundSlot: one RunCreatingSlot from the root into slot 0,
// a RunFromSnapshot(0, …) per execution of the budget, then DropSnapshot,
// the release. A pooled round creates or hits a pool slot and releases
// nothing while it fits the budget. Neither issues a RunFromRoot with a
// marker, a RunSuffix or a HasSnapshot, and a pool-off campaign never drops
// a pooled slot.
func TestSlotRoundCallSequence(t *testing.T) {
	const reuse = 7
	start := func(policy Policy, budget int64) (*Fuzzer, *stubExec) {
		t.Helper()
		s, seed := stubSpecInput()
		ex := &stubExec{loc: 5}
		f := New(ex, s, Options{
			Policy:        policy,
			Seeds:         []*spec.Input{seed},
			SnapshotReuse: reuse,
			Sched:         SchedRoundRobin,
			Rand:          rand.New(rand.NewSource(3)),
			SnapBudget:    budget,
		})
		if err := f.Step(); err != nil { // seed import
			t.Fatal(err)
		}
		ex.calls = nil
		return f, ex
	}
	step := func(f *Fuzzer) {
		t.Helper()
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Every RunFromSnapshot of a pool-off round resumes slot 0 at the marker
	// the aggressive policy puts after the seed's last packet, op 6.
	f, ex := start(PolicyAggressive, 0)
	step(f)
	want := []stubCall{{"RunCreatingSlot", -1, roundSlot, 6}}
	for i := 0; i < reuse; i++ {
		want = append(want, stubCall{"RunFromSnapshot", -2, roundSlot, 6})
	}
	want = append(want, stubCall{"DropSnapshot", -2, -2, -1})
	if !slices.Equal(ex.calls, want) {
		t.Fatalf("pool-off round issued\n%v\nwant\n%v", ex.calls, want)
	}

	never := func(name string, ex *stubExec, pooled bool) {
		t.Helper()
		for _, c := range ex.calls {
			bad := c.method == "RunSuffix" || c.method == "HasSnapshot" ||
				c.method == "RunFromRoot" && c.at >= 0 ||
				pooled && c.method == "DropSnapshot" ||
				!pooled && (c.method == "DropSlot" || c.slot > roundSlot)
			if bad {
				t.Fatalf("%s: core issued %+v", name, c)
			}
		}
	}
	for _, policy := range []Policy{PolicyAggressive, PolicyBalanced} {
		f, ex := start(policy, 0)
		for i := 0; i < 40; i++ {
			step(f)
		}
		never(policy.String()+" pool off", ex, false)
		if f.SnapshotExecs() == 0 {
			t.Fatalf("%v pool off: no snapshot round ran", policy)
		}
	}

	f, ex = start(PolicyAggressive, 1<<20)
	step(f)
	step(f) // the same entry and marker: a pool hit
	slot := ex.calls[0].slot
	want = []stubCall{{"RunCreatingSlot", -1, slot, 6}}
	for i := 0; i < 2*reuse; i++ {
		want = append(want, stubCall{"RunFromSnapshot", -2, slot, 6})
	}
	if slot == roundSlot || !slices.Equal(ex.calls, want) {
		t.Fatalf("two pooled rounds issued\n%v\nwant\n%v", ex.calls, want)
	}
	for i := 0; i < 40; i++ {
		step(f)
	}
	never("pooled", ex, true)
}
