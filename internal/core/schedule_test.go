package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/spec"
)

// crashStallExec is an Executor whose target always crashes while executing
// op crashOp. A snapshot marker placed after that op can therefore never be
// reached — the exact situation that stalled the aggressive policy: the
// snapshot-creation run returned !SnapshotTaken, Step bailed out before the
// barren accounting, and the policy retried the same crashing position
// forever, one execution per scheduling round.
type crashStallExec struct {
	loc     uint32
	crashOp int
	now     time.Duration
	hasSnap bool
}

func (c *crashStallExec) RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	if tr != nil {
		tr.Reset()
		tr.Hit(c.loc)
	}
	c.now += time.Millisecond
	res := netemu.Result{CrashOp: -1}
	if len(in.Ops) > c.crashOp {
		res.Crashed = true
		res.Crash = &guest.CrashError{Kind: guest.CrashSegfault, Msg: "stall"}
		res.CrashOp = c.crashOp
		res.OpsExecuted = c.crashOp
		if in.SnapshotAt >= 0 && in.SnapshotAt <= c.crashOp {
			res.SnapshotTaken = true
			c.hasSnap = true
		}
	} else {
		res.OpsExecuted = len(in.Ops)
		if in.SnapshotAt >= 0 {
			res.SnapshotTaken = true
			c.hasSnap = true
		}
	}
	return res, nil
}

func (c *crashStallExec) RunSuffix(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	if tr != nil {
		tr.Reset()
		tr.Hit(c.loc)
	}
	c.now += time.Millisecond
	return netemu.Result{FromSnapshot: true, CrashOp: -1, OpsExecuted: len(in.Ops)}, nil
}

func (c *crashStallExec) HasSnapshot() bool  { return c.hasSnap }
func (c *crashStallExec) DropSnapshot()      { c.hasSnap = false }
func (c *crashStallExec) Now() time.Duration { return c.now }

// Regression test for the aggressive-policy stall: a seed that always
// crashes before the snapshot marker must not pin the campaign. The policy
// has to charge the failed round as barren (so the position retreats off
// the crashing prefix within a bounded number of rounds) and spend the
// round's budget fuzzing from the root snapshot instead of burning a whole
// schedule on the one failed execution.
func TestAggressiveRetreatsOffCrashingPrefix(t *testing.T) {
	s, seed := stubSpecInput() // 5 packets; crash while executing the last one
	f := New(&crashStallExec{loc: 7, crashOp: 5}, s, Options{
		Policy: PolicyAggressive,
		Seeds:  []*spec.Input{seed},
		Rand:   rand.New(rand.NewSource(1)),
	})
	if err := f.Step(); err != nil { // seed import
		t.Fatal(err)
	}
	if len(f.Queue) != 1 {
		t.Fatalf("queue = %d entries, want 1", len(f.Queue))
	}
	e := f.Queue[0]

	// First scheduling round: the marker lands after the crashing op, the
	// snapshot run fails, and the round must still do real work.
	before := f.Execs()
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if delta := f.Execs() - before; delta < 5 {
		t.Fatalf("failed snapshot round ran only %d executions — burned the schedule on one exec", delta)
	}

	// Within a bounded number of rounds the position must retreat off the
	// crashing prefix and incremental snapshots must start working. The
	// bound: one retreat per round once barren execs accumulate, at most
	// Packets positions to walk.
	const maxRounds = 40
	for i := 0; i < maxRounds && f.SnapshotExecs() == 0; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.aggrBack == 0 {
		t.Fatal("aggressive policy never retreated off the always-crashing position")
	}
	if f.SnapshotExecs() == 0 {
		t.Fatalf("no snapshot executions after %d rounds — still stalled on the crashing prefix", maxRounds)
	}
}

// The round-robin scheduler must keep the seed's flat-rotation semantics:
// fixed budget, no trim, no favored skipping.
func TestRoundRobinKeepsFlatRotation(t *testing.T) {
	s, seed := stubSpecInput()
	f := New(&stubExec{loc: 9}, s, Options{
		Policy: PolicyNone,
		Seeds:  []*spec.Input{seed},
		Sched:  SchedRoundRobin,
		Rand:   rand.New(rand.NewSource(2)),
	})
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	e := f.Queue[0]
	if e.Trimmed {
		t.Fatal("round-robin scheduler ran the lazy trim")
	}
	if got := f.energy(e); got != f.opts.SnapshotReuse {
		t.Fatalf("round-robin energy = %d, want fixed %d", got, f.opts.SnapshotReuse)
	}
}

// setQueue installs a hand-built queue the way account() would: the cached
// exec-time sum follows the entries (energy's O(1) queue average).
func setQueue(f *Fuzzer, entries ...*QueueEntry) {
	f.Queue = entries
	f.execTimeSum = 0
	for _, e := range entries {
		f.execTimeSum += e.ExecTime
	}
}

// The energy budget must penalize slow, narrow and fatigued entries, let
// boosts offset penalties without exceeding the baseline, and stay within
// the documented clamps.
func TestEnergyScalesAndClamps(t *testing.T) {
	s, _ := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{
		Policy:        PolicyNone,
		Rand:          rand.New(rand.NewSource(3)),
		SnapshotReuse: 100,
	})
	cov := []coverage.BucketHit{{Index: 1, Bucket: 1}}
	fast := &QueueEntry{ExecTime: time.Millisecond, Cov: cov}
	slow := &QueueEntry{ExecTime: 100 * time.Millisecond, Cov: cov}
	setQueue(f, fast, fast, fast, slow)

	if ef, es := f.energy(fast), f.energy(slow); ef <= es {
		t.Fatalf("fast entry energy %d not above slow entry's %d", ef, es)
	}
	// A depth boost offsets the slowness penalty, but never pushes the
	// budget past the baseline.
	deepSlow := &QueueEntry{ExecTime: 100 * time.Millisecond, Cov: cov, Depth: 20}
	setQueue(f, fast, fast, fast, deepSlow)
	if ed, es := f.energy(deepSlow), f.energy(slow); ed <= es {
		t.Fatalf("depth boost did not offset the slowness penalty: %d vs %d", ed, es)
	}
	if ed := f.energy(deepSlow); ed > f.opts.SnapshotReuse {
		t.Fatalf("energy %d exceeds the baseline budget %d", ed, f.opts.SnapshotReuse)
	}
	tired := &QueueEntry{ExecTime: time.Millisecond, Cov: cov, Picked: 100}
	fresh := &QueueEntry{ExecTime: time.Millisecond, Cov: cov}
	setQueue(f, tired, fresh)
	if et, efr := f.energy(tired), f.energy(fresh); et >= efr {
		t.Fatalf("fatigued entry energy %d not below fresh entry's %d", et, efr)
	}
	// Clamps: every entry stays within [25, 100]% of the baseline.
	extreme := &QueueEntry{ExecTime: time.Nanosecond, Cov: cov, Depth: 50}
	setQueue(f, extreme, slow, slow, slow)
	if e := f.energy(extreme); e > 100*energyMaxScore/100 {
		t.Fatalf("energy %d exceeds max clamp", e)
	}
	worst := &QueueEntry{ExecTime: time.Second, Picked: 100}
	setQueue(f, worst, fast)
	if e := f.energy(worst); e < 100*energyMinScore/100 {
		t.Fatalf("energy %d below min clamp", e)
	}
}

// Favored culling must keep the invariant that every top-rated edge is
// covered by some favored entry, and the favored subset should be a strict
// subset of a grown queue.
func TestFavoredCullingCoversTopRated(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyBalanced, 11)
	if err := f.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(f.Queue) < 4 {
		t.Fatalf("queue too small (%d) to exercise culling", len(f.Queue))
	}
	f.cullQueue() // what the next pick sees

	favored := 0
	covered := make(map[uint32]bool)
	for _, e := range f.Queue {
		if e.Favored {
			favored++
			for _, h := range e.Cov {
				covered[h.Index] = true
			}
		}
	}
	if favored == 0 {
		t.Fatal("cull marked no favored entries")
	}
	if favored == len(f.Queue) {
		t.Fatalf("cull favored all %d entries — no pruning happened", favored)
	}
	for _, r := range f.topRated {
		if !covered[r.edge] {
			t.Fatalf("top-rated edge %d not covered by any favored entry", r.edge)
		}
	}
}

// The scheduler must spend most picks on favored entries, while non-favored
// entries still get occasional rounds (probabilistic skipping, not a hard
// filter).
func TestPickPrefersFavored(t *testing.T) {
	s, _ := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{
		Policy: PolicyNone,
		Rand:   rand.New(rand.NewSource(4)),
	})
	const n = 10
	for i := 0; i < n; i++ {
		f.Queue = append(f.Queue, &QueueEntry{ID: i, Picked: 1})
	}
	f.Queue[3].Favored = true

	picks := make([]int, n)
	for i := 0; i < 2000; i++ {
		picks[f.pickEntry().ID]++
	}
	for i, c := range picks {
		if i == 3 {
			continue
		}
		if picks[3] <= c {
			t.Fatalf("favored entry picked %d times, non-favored %d picked %d", picks[3], i, c)
		}
		if c == 0 {
			t.Fatalf("non-favored entry %d starved completely", i)
		}
	}
}

// Scheduler metadata must round-trip through EncodeSchedState/DecodeSchedState
// and re-attach to entries that re-queue from a saved corpus, and two
// fuzzers restored from the same state must pick the same entries — the
// determinism contract checkpoint/resume builds on.
func TestSchedMetaRoundTripAndDeterministicResume(t *testing.T) {
	dir := t.TempDir()
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyBalanced, 12)
	if err := f.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(f.Queue) < 2 {
		t.Fatal("queue too small")
	}
	if err := f.SaveCorpus(dir); err != nil {
		t.Fatal(err)
	}
	var w guest.StateWriter
	EncodeSchedState(&w, f.SchedMeta(), f.PowerState())
	metas, _, err := DecodeSchedState(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != len(f.Queue) {
		t.Fatalf("loaded %d metadata entries, want %d", len(metas), len(f.Queue))
	}
	for i, m := range metas {
		e := f.Queue[i]
		if m.Depth != e.Depth || m.Picked != e.Picked || m.Trimmed != e.Trimmed ||
			m.ExecTime != e.ExecTime {
			t.Fatalf("metadata %d does not match live entry: %+v vs %+v", i, m, *e)
		}
	}

	restore := func(seed int64) *Fuzzer {
		inst2 := launch(t, "lightftp")
		seeds, err := LoadCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := New(inst2.Agent, inst2.Spec, Options{
			Policy:   PolicyBalanced,
			Seeds:    seeds,
			SeedMeta: metas,
			Rand:     rand.New(rand.NewSource(seed)),
			Dict:     inst2.Info.Dict,
		})
		if err := r.Step(); err != nil { // seed import
			t.Fatal(err)
		}
		return r
	}

	r1 := restore(99)
	restoredMeta := 0
	for _, e := range r1.Queue {
		if e.Picked > 0 || e.Trimmed {
			restoredMeta++
		}
	}
	if restoredMeta == 0 {
		t.Fatal("no entry got its scheduler metadata re-attached on restore")
	}

	// Same restored state + same RNG seed => identical scheduling.
	r2 := restore(99)
	if err := r1.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r2.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.Execs() != r2.Execs() || r1.Coverage() != r2.Coverage() || len(r1.Queue) != len(r2.Queue) {
		t.Fatalf("restored campaigns diverged: execs %d/%d, cov %d/%d, queue %d/%d",
			r1.Execs(), r2.Execs(), r1.Coverage(), r2.Coverage(), len(r1.Queue), len(r2.Queue))
	}
	for i := range r1.Queue {
		if r1.Queue[i].Picked != r2.Queue[i].Picked {
			t.Fatalf("entry %d picked %d vs %d times — pick sequences diverged",
				i, r1.Queue[i].Picked, r2.Queue[i].Picked)
		}
	}
}

// The lazy trim must run only on picked favored entries (at most once
// each), must never grow an input, and must respect the campaign-wide
// virtual-time budget.
func TestLazyTrimOnFirstPick(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 13)
	if err := f.Step(); err != nil { // seed import
		t.Fatal(err)
	}
	sizes := make(map[int]int)
	for _, e := range f.Queue {
		sizes[e.ID] = len(e.Input.Ops)
	}
	rounds := 3 * len(f.Queue) // the queue grows while we fuzz; bound on the seed corpus
	for i := 0; i < rounds; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	trimmed := 0
	for _, e := range f.Queue {
		if e.Trimmed {
			trimmed++
			if e.Picked == 0 {
				t.Fatalf("entry %d trimmed without ever being picked", e.ID)
			}
		}
		if orig, ok := sizes[e.ID]; ok && len(e.Input.Ops) > orig {
			t.Fatalf("entry %d grew from %d to %d ops", e.ID, orig, len(e.Input.Ops))
		}
	}
	if trimmed == 0 {
		t.Fatal("no entry was ever trimmed")
	}
	// The budget is checked before each trim, so a single in-flight trim
	// may overshoot the cap — but never by more than one trim's worth.
	if budget := f.Elapsed() * 2 * trimBudgetPct / 100; f.trimTime > budget {
		t.Fatalf("trim consumed %v, far beyond the %d%% budget", f.trimTime, trimBudgetPct)
	}
}

// opCostExec is an Executor whose virtual cost is proportional to the
// input length (one millisecond per op) and whose coverage is independent
// of it — so trimming always succeeds and measurably shortens exec time.
type opCostExec struct {
	loc     uint32
	now     time.Duration
	hasSnap bool
}

func (o *opCostExec) RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	if tr != nil {
		tr.Reset()
		tr.Hit(o.loc)
	}
	o.now += time.Millisecond * time.Duration(len(in.Ops))
	res := netemu.Result{CrashOp: -1, OpsExecuted: len(in.Ops)}
	if in.SnapshotAt >= 0 {
		res.SnapshotTaken = true
		o.hasSnap = true
	}
	return res, nil
}

func (o *opCostExec) RunSuffix(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	if tr != nil {
		tr.Reset()
		tr.Hit(o.loc)
	}
	o.now += time.Millisecond
	return netemu.Result{FromSnapshot: true, CrashOp: -1, OpsExecuted: len(in.Ops)}, nil
}

func (o *opCostExec) HasSnapshot() bool  { return o.hasSnap }
func (o *opCostExec) DropSnapshot()      { o.hasSnap = false }
func (o *opCostExec) Now() time.Duration { return o.now }

// ParsePower and Power.String round-trip the flag values, and the schedules
// the seed-spread ledger retired are unknown names that say what is known.
func TestPowerParseAndString(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Power
	}{{"off", PowerOff}, {"", PowerOff}, {"coe", PowerCoe}} {
		got, err := ParsePower(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePower(%q) = %v, %v", tc.name, got, err)
		}
	}
	for _, name := range []string{"bogus", "fast", "explore", "lin", "quad", "adaptive"} {
		if _, err := ParsePower(name); err == nil || !strings.Contains(err.Error(), "off | coe)") {
			t.Fatalf("ParsePower(%q): err = %v, want a refusal naming off | coe", name, err)
		}
	}
	for _, p := range []Power{PowerOff, PowerCoe} {
		rt, err := ParsePower(p.String())
		if err != nil || rt != p {
			t.Fatalf("power %v does not round-trip through its name %q", p, p.String())
		}
	}
	if Power(9).String() == "" {
		t.Fatal("unknown power should still render")
	}
}

// coe's energy must decay over-fuzzed entries: monotone non-increasing in
// Picked, and strictly lower somewhere over 16 picks.
func TestPowerEnergyMonotonicityInPicked(t *testing.T) {
	s, _ := stubSpecInput()
	cov := []coverage.BucketHit{{Index: 1, Bucket: 1}}
	f := New(&stubExec{loc: 1}, s, Options{
		Policy:        PolicyNone,
		Rand:          rand.New(rand.NewSource(5)),
		SnapshotReuse: 100,
		Power:         PowerCoe,
	})
	// A settled single-edge campaign: the edge sits exactly at the mean pick
	// frequency, so the cut-off does not fire and only the pick-count
	// response shows through.
	f.edgePicks[1] = 10
	f.edgePickSum = 10
	energyAt := func(picked int) int {
		e := &QueueEntry{ExecTime: time.Millisecond, Cov: cov, Picked: picked}
		mate := &QueueEntry{ExecTime: time.Millisecond, Cov: cov}
		setQueue(f, e, mate)
		return f.energy(e)
	}
	prev := energyAt(0)
	decayed := false
	for _, picked := range []int{1, 2, 4, 8, 16} {
		cur := energyAt(picked)
		if cur > prev {
			t.Fatalf("energy rose from %d to %d as Picked grew", prev, cur)
		}
		if cur < prev {
			decayed = true
		}
		prev = cur
	}
	if !decayed {
		t.Fatal("energy never decayed over 16 picks")
	}
}

// coe must cut an entry whose rarest edge sits above the mean pick
// frequency to the floor, and leave one with a rarely-picked edge alone.
func TestPowerEdgeRarityBoostAndCutoff(t *testing.T) {
	s, _ := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{
		Policy:        PolicyNone,
		Rand:          rand.New(rand.NewSource(6)),
		SnapshotReuse: 100,
		Power:         PowerCoe,
	})
	// Edge 1 is worn out, edge 2 barely touched: mean sits between.
	f.edgePicks = map[uint32]uint64{1: 100, 2: 1}
	f.edgePickSum = 101
	hot := &QueueEntry{ExecTime: time.Millisecond, Cov: []coverage.BucketHit{{Index: 1, Bucket: 1}}}
	rare := &QueueEntry{ExecTime: time.Millisecond, Cov: []coverage.BucketHit{{Index: 2, Bucket: 1}}}
	setQueue(f, hot, rare)
	if e := f.energy(hot); e != energyMinScore*f.opts.SnapshotReuse/100 {
		t.Fatalf("coe did not cut the over-exercised entry to the floor: energy %d", e)
	}
	if e := f.energy(rare); e != f.opts.SnapshotReuse {
		t.Fatalf("coe cut the entry with a rare edge: energy %d, want the baseline %d", e, f.opts.SnapshotReuse)
	}
}

// Under the power schedule the energy ceiling must stay at the baseline
// while never-picked entries remain, then lift with the campaign horizon
// once the frontier drains — the whole point of -power coe.
func TestPowerCeilingLiftsWhenFrontierDrains(t *testing.T) {
	s, _ := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{
		Policy:        PolicyNone,
		Rand:          rand.New(rand.NewSource(7)),
		SnapshotReuse: 100,
		Power:         PowerCoe,
	})
	f.edgePicks = map[uint32]uint64{1: 100, 2: 1}
	f.edgePickSum = 101
	// Deep enough for a 3x depth boost, on the rarely-picked edge so coe
	// keeps it: its score exceeds the baseline whenever the ceiling lets it.
	rare := &QueueEntry{ExecTime: time.Millisecond, Depth: 14, Cov: []coverage.BucketHit{{Index: 2, Bucket: 1}}}
	mate := &QueueEntry{ExecTime: time.Millisecond, Cov: []coverage.BucketHit{{Index: 1, Bucket: 1}}}
	setQueue(f, rare, mate)
	f.totalPicked = 2 * 64 // deep re-pick regime: mean picks per entry = 64

	f.pendingNew = 1
	if e := f.energy(rare); e > f.opts.SnapshotReuse {
		t.Fatalf("energy %d exceeded the baseline while the frontier still held entries", e)
	}
	f.pendingNew = 0
	boosted := f.energy(rare)
	if boosted <= f.opts.SnapshotReuse {
		t.Fatalf("energy %d did not exceed the baseline after the frontier drained", boosted)
	}
	if max := f.opts.SnapshotReuse * powerHorizonMaxBoost; boosted > max {
		t.Fatalf("energy %d exceeded the lifted ceiling %d", boosted, max)
	}

	// The baseline scheduler keeps its clamp no matter the horizon.
	f.power = PowerOff
	if e := f.energy(rare); e > f.opts.SnapshotReuse {
		t.Fatalf("power-off energy %d exceeded the baseline clamp", e)
	}
}

// The cached queue exec-time sum (energy's O(1) average) must agree with a
// full recompute after a real campaign — append, import and trim all
// update it.
func TestEnergyCachedExecTimeSum(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyBalanced, 21)
	if err := f.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	check := func(f *Fuzzer, when string) {
		t.Helper()
		var total time.Duration
		for _, e := range f.Queue {
			total += e.ExecTime
		}
		if total != f.execTimeSum {
			t.Fatalf("%s: cached exec-time sum %v != recomputed %v over %d entries",
				when, f.execTimeSum, total, len(f.Queue))
		}
	}
	check(f, "after solo campaign (append + trim)")

	// Imports land through the same accounting.
	inst2 := launch(t, "lightftp")
	g := newFuzzer(t, inst2, PolicyBalanced, 22)
	if err := g.Step(); err != nil {
		t.Fatal(err)
	}
	imported := 0
	for _, e := range f.Queue {
		ok, err := g.ImportInput(e.Input)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			imported++
		}
	}
	if imported == 0 {
		t.Fatal("no entry imported — import accounting not exercised")
	}
	check(g, "after imports")
}

// A trim must re-estimate the entry's exec time from the trim's final
// validating execution: the old full-length estimate mis-ranks the
// trimmed entry in favFactor and energy.
func TestTrimReestimatesExecTime(t *testing.T) {
	s, seed := stubSpecInput()
	f := New(&opCostExec{loc: 3}, s, Options{
		Policy:       PolicyNone,
		Seeds:        []*spec.Input{seed},
		Rand:         rand.New(rand.NewSource(8)),
		TrackRetrims: true,
	})
	if err := f.Step(); err != nil { // seed import
		t.Fatal(err)
	}
	if len(f.Queue) != 1 {
		t.Fatalf("queue = %d entries, want 1", len(f.Queue))
	}
	e := f.Queue[0]
	before := e.ExecTime
	if before != time.Millisecond*time.Duration(len(e.Input.Ops)) {
		t.Fatalf("seed exec time %v not proportional to its %d ops", before, len(e.Input.Ops))
	}
	if err := f.trimEntry(e); err != nil {
		t.Fatal(err)
	}
	if len(e.Input.Ops) >= len(seed.Ops) {
		t.Fatalf("trim did not shrink the input (%d ops)", len(e.Input.Ops))
	}
	want := time.Millisecond * time.Duration(len(e.Input.Ops))
	if e.ExecTime != want {
		t.Fatalf("trimmed exec time %v, want %v (the final validating run's cost)", e.ExecTime, want)
	}
	if e.ExecTime >= before {
		t.Fatalf("trim left the stale full-length estimate: %v >= %v", e.ExecTime, before)
	}
	if f.execTimeSum != e.ExecTime {
		t.Fatalf("cached exec-time sum %v not updated with the re-estimate %v", f.execTimeSum, e.ExecTime)
	}
	// The trim is queued for the campaign broker, which transfers the
	// entry's global claims from the pre-trim key to the trimmed form's.
	re := f.DrainRetrimmed()
	if len(re) != 1 || re[0].Entry != e {
		t.Fatalf("DrainRetrimmed returned %v, want the trimmed entry", re)
	}
	if re[0].OldKey != InputKey(seed) {
		t.Fatal("DrainRetrimmed did not record the pre-trim content key")
	}
	if re[0].OldKey == InputKey(e.Input) {
		t.Fatal("trim did not change the content key (test premise broken)")
	}
	// The memoized key went with the input it described.
	if e.Key() != InputKey(e.Input) {
		t.Fatal("the entry still answers with its pre-trim content key")
	}
	if f.DrainRetrimmed() != nil {
		t.Fatal("DrainRetrimmed did not reset the list")
	}
}

// Content keys exist for the campaign layer (the broker's corpus and claims,
// checkpoints). A solo run — seed import, lazy trims, queueing — reads
// none, so it must hash none: every entry's memo is still empty.
func TestSoloRunHashesNoInput(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyAggressive, 13)
	if err := f.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	trimmed := 0
	for _, e := range f.Queue {
		if e.Trimmed {
			trimmed++
		}
		if e.enc != nil {
			t.Fatalf("entry %d was hashed during a solo run", e.ID)
		}
	}
	if trimmed == 0 {
		t.Fatal("no entry was trimmed (test premise broken)")
	}
}

// roundTripPower passes f's power state through the sched.bin codec.
func roundTripPower(t *testing.T, f *Fuzzer) *PowerMeta {
	t.Helper()
	var w guest.StateWriter
	EncodeSchedState(&w, f.SchedMeta(), f.PowerState())
	_, m, err := DecodeSchedState(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Power-schedule state must round-trip through EncodeSchedState and
// DecodeSchedState, and the stream is canonical: edges out of order, a
// count the bytes left cannot hold and trailing bytes are all errors.
func TestPowerMetaRoundTrip(t *testing.T) {
	s, _ := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{
		Rand:  rand.New(rand.NewSource(9)),
		Power: PowerCoe,
	})
	f.edgePicks = map[uint32]uint64{7: 3, 9: 1}
	f.edgePickSum = 4
	f.totalPicked = 12
	m := roundTripPower(t, f)
	if m == nil || m.TotalPicked != 12 || len(m.EdgePicks) != 2 || m.EdgePicks[7] != 3 || m.EdgePicks[9] != 1 {
		t.Fatalf("power meta did not round-trip: %+v", m)
	}

	r := New(&stubExec{loc: 1}, s, Options{
		Rand:       rand.New(rand.NewSource(10)),
		Power:      PowerCoe,
		PowerState: m,
	})
	if r.totalPicked != 12 || r.edgePickSum != 4 || r.edgePicks[7] != 3 {
		t.Fatalf("restored fuzzer power state wrong: total=%d sum=%d picks=%v",
			r.totalPicked, r.edgePickSum, r.edgePicks)
	}

	var w guest.StateWriter
	EncodeSchedState(&w, nil, m)
	good := w.Bytes()
	swapped := slices.Clone(good)
	edge := len(good) - 2*(4+8) // the two (u32 edge, u64 picks) pairs end the stream
	swapped[edge], swapped[edge+4+8] = 9, 7
	huge := slices.Clone(good)
	binary.LittleEndian.PutUint32(huge, 0xf0000000) // the entry count
	for name, bad := range map[string][]byte{
		"edges out of order": swapped,
		"entry count":        huge,
		"trailing byte":      append(slices.Clone(good), 0),
		"truncated":          good[:len(good)-1],
	} {
		if _, _, err := DecodeSchedState(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// ParseSched and Sched.String round-trip the flag values.
func TestSchedParseAndString(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Sched
	}{{"afl", SchedAFL}, {"rr", SchedRoundRobin}, {"round-robin", SchedRoundRobin}} {
		got, err := ParseSched(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSched(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := ParseSched("bogus"); err == nil {
		t.Fatal("ParseSched must reject unknown names")
	}
	if SchedAFL.String() != "afl" || SchedRoundRobin.String() != "round-robin" {
		t.Fatal("Sched names wrong")
	}
	if Sched(9).String() == "" {
		t.Fatal("unknown sched should still render")
	}
}

// Peer pick frequencies from the broker must feed the local rarity signal:
// an edge other workers hammer stops looking rare here, and the combined
// mean moves with the campaign-wide total.
func TestPeerEdgePicksShapeRarity(t *testing.T) {
	s, _ := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{
		Policy:        PolicyNone,
		Rand:          rand.New(rand.NewSource(6)),
		SnapshotReuse: 100,
		Power:         PowerCoe,
	})
	// Locally, edge 1 looks rare (1 pick) against a hot edge 2.
	f.edgePicks = map[uint32]uint64{1: 1, 2: 15}
	f.edgePickSum = 16
	e := &QueueEntry{ExecTime: time.Millisecond, Cov: []coverage.BucketHit{{Index: 1, Bucket: 1}}}
	mate := &QueueEntry{ExecTime: time.Millisecond, Cov: []coverage.BucketHit{{Index: 2, Bucket: 1}}}
	setQueue(f, e, mate)
	kept := f.powerScore(100, e)
	if kept <= f.powerScore(100, mate) {
		t.Fatalf("locally rare edge should out-earn the hot one (%d vs %d)", kept, f.powerScore(100, mate))
	}
	// The broker reports every other worker has been hammering edge 1.
	f.SetPeerEdgePicks(map[uint32]uint64{1: 200}, 200)
	if cut := f.powerScore(100, e); cut != energyMinScore {
		t.Fatalf("peer-hammered edge escaped the cut-off: %d -> %d", kept, cut)
	}
	rare, mean := f.edgeRarity(e)
	if rare != 201 {
		t.Fatalf("combined rarity = %d, want local 1 + peer 200", rare)
	}
	if mean != (16+200)/2 {
		t.Fatalf("combined mean = %d, want %d", mean, (16+200)/2)
	}
}

// Every policy, scheduler and power schedule marshals to the name its Parse
// function reads, and UnmarshalText reads it back; a value with no name does
// not marshal, and a name no value has does not unmarshal.
func TestEnumsMarshalTheirFlagNames(t *testing.T) {
	type (
		marshaler   interface{ MarshalText() ([]byte, error) }
		unmarshaler interface{ UnmarshalText([]byte) error }
	)
	policy := func(s string) (any, error) { return ParsePolicy(s) }
	sched := func(s string) (any, error) { return ParseSched(s) }
	power := func(s string) (any, error) { return ParsePower(s) }
	for _, tc := range []struct {
		v     marshaler
		name  string
		parse func(string) (any, error)
		back  unmarshaler
	}{
		{PolicyNone, "none", policy, new(Policy)},
		{PolicyBalanced, "balanced", policy, new(Policy)},
		{PolicyAggressive, "aggressive", policy, new(Policy)},
		{SchedAFL, "afl", sched, new(Sched)},
		{SchedRoundRobin, "rr", sched, new(Sched)},
		{PowerOff, "off", power, new(Power)},
		{PowerCoe, "coe", power, new(Power)},
	} {
		text, err := tc.v.MarshalText()
		if err != nil || string(text) != tc.name {
			t.Fatalf("%T %v marshals to %q, %v; want %q", tc.v, tc.v, text, err, tc.name)
		}
		if got, err := tc.parse(tc.name); err != nil || got != tc.v {
			t.Fatalf("%q parses to %v, %v; want %v", tc.name, got, err, tc.v)
		}
		if err := tc.back.UnmarshalText(text); err != nil || reflect.ValueOf(tc.back).Elem().Interface() != tc.v {
			t.Fatalf("%q unmarshals to %v, %v; want %v", text, tc.back, err, tc.v)
		}
		if err := tc.back.UnmarshalText([]byte("bogus")); err == nil {
			t.Fatalf("%T unmarshalled an unknown name", tc.back)
		}
	}
	for _, v := range []marshaler{Policy(-1), Policy(3), Sched(2), Power(2)} {
		if _, err := v.MarshalText(); err == nil {
			t.Fatalf("%T %v marshalled", v, v)
		}
	}
}
