package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/snappool"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/targets"
	"repro/internal/vm"
)

// opCount is the failure accounting every run reports: each Step/RunFor,
// checkpoint, resume, resume equality check, repetition determinism check
// and crash reproduction is one attempted operation.
type opCount struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (o *opCount) check(ok bool, format string, args ...any) {
	o.Attempted++
	if ok {
		return
	}
	o.Failed++
	if len(o.Failures) < 20 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func (o *opCount) merge(p opCount) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.Failures = append(o.Failures, p.Failures...)
}

// counters are the public per-layer counts of one repetition, summed over
// workers and — where a workload resumes into a fresh campaign every cycle —
// over cycles.
type counters struct {
	Execs             uint64
	RootExecs         uint64
	SnapExecs         uint64 // execs resumed from a slot; a campaign only shows them as slot restores (traced runs)
	FullPrefixReexecs uint64
	QueueLen          int
	CrashesUnique     int
	Pool              snappool.Stats
	VM                vm.MachineStats
	Sync              campaign.SyncStats
	Deduped           uint64
	CorpusSize        int
	WorkerExecsMin    uint64
	WorkerExecsMax    uint64
}

func (c *counters) addPool(s snappool.Stats) {
	c.Pool.Hits += s.Hits
	c.Pool.Misses += s.Misses
	c.Pool.DigestHits += s.DigestHits
	c.Pool.Evictions += s.Evictions
	c.Pool.LookupWall += s.LookupWall
	c.Pool.Lookups += s.Lookups
	c.Pool.Slots += s.Slots
	c.Pool.PeakBytes = max(c.Pool.PeakBytes, s.PeakBytes)
}

func (c *counters) addVM(s vm.MachineStats) {
	c.VM.RootRestores += s.RootRestores
	c.VM.IncCreates += s.IncCreates
	c.VM.IncRestores += s.IncRestores
	c.VM.RestoreWall += s.RestoreWall
	c.VM.PagesCoWBroken += s.PagesCoWBroken
	c.VM.PagesEagerCopied += s.PagesEagerCopied
	c.VM.EagerHits += s.EagerHits
	c.VM.EagerMisses += s.EagerMisses
	c.VM.SectorsEagerCopied += s.SectorsEagerCopied
}

// addCampaign folds in the counters of a campaign about to be dropped.
func (c *counters) addCampaign(cp *campaign.Campaign) {
	c.Execs += cp.Execs()
	c.RootExecs += cp.RootExecs()
	c.FullPrefixReexecs += cp.FullPrefixReexecs()
	c.addPool(cp.PoolStats())
	ss := cp.SyncStats()
	c.Sync.Mode = ss.Mode
	c.Sync.Epochs += ss.Epochs
	c.Sync.SyncWall += ss.SyncWall
	c.Sync.ShardAcquisitions += ss.ShardAcquisitions
	c.Sync.ShardContended += ss.ShardContended
	c.Sync.ImportsDropped += ss.ImportsDropped
	c.Deduped = cp.Deduped()
	c.CorpusSize = cp.CorpusSize()
	c.CrashesUnique = len(cp.Crashes())
	c.QueueLen = 0
	for i, ws := range cp.PerWorker() {
		c.QueueLen += ws.Queue
		if i == 0 || ws.Execs < c.WorkerExecsMin {
			c.WorkerExecsMin = ws.Execs
		}
		c.WorkerExecsMax = max(c.WorkerExecsMax, ws.Execs)
	}
}

// repResult is everything one repetition of a workload produced.
type repResult struct {
	Slices []sliceSample
	// StartEdges is the coverage before the first timed slice.
	StartEdges  int
	Execs       uint64 // over the timed slices
	Edges       int    // at the horizon
	VirtElapsed time.Duration
	Crashes     []core.Crash
	LiveHeapMB  float64
	// Wall, OnCPU and Quiet sum the timed slices' (estimate.go).
	Wall, OnCPU, Quiet time.Duration
	StealShare         float64 // share of wanted CPU time the host withheld during the repetition
	Counters           counters
	Ops                opCount

	// Corpus is the final corpus, for the replay stage (traced runs only).
	Corpus []*spec.Input
	// Final is the campaign at the horizon (nil for a solo workload), kept
	// for the checkpoint tail.
	Final *campaign.Campaign
}

func (r *repResult) add(s sliceSample) {
	r.Wall += s.Wall
	r.OnCPU += s.OnCPU
	r.Quiet += s.Quiet
	r.Execs += s.Execs
}

// fingerprint is the part of a repetition a seeded workload must repeat
// exactly: per-slice execs and coverage, crash keys, virtual elapsed time.
func (r *repResult) fingerprint() string {
	var b strings.Builder
	for _, s := range r.Slices {
		fmt.Fprintf(&b, "%d/%d ", s.Execs, s.Edges)
	}
	keys := make([]string, len(r.Crashes))
	for i, c := range r.Crashes {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "| %s | %d", strings.Join(keys, ";"), r.VirtElapsed)
	return b.String()
}

// env is what a repetition runs against: the store checkpoints go to, and
// in a traced run the caller-side tracer.
type env struct {
	st     store.Storer
	tracer *tracer // nil when untraced
}

func (e *env) begin(k spanKind) {
	if e.tracer != nil {
		e.tracer.begin(k)
	}
}

func (e *env) end() {
	if e.tracer != nil {
		e.tracer.end()
	}
}

// targetName is the registry name to launch: the target itself, or in a
// traced run its decorated twin.
func (e *env) targetName(w *workload) (string, error) {
	if e.tracer == nil {
		return w.Target, nil
	}
	return hub.name(w.Target)
}

// liveHeap forces a collection and reads the live heap in bytes; keep
// holds what must still be referenced at that point. A repetition reads it
// before it builds its engine and again at the horizon: the difference is
// the campaign's own live data, whatever else the process holds.
func liveHeap(keep any) uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return m.HeapAlloc
}

func mib(after, before uint64) float64 { return (float64(after) - float64(before)) / (1 << 20) }

// newSolo builds the CLI's solo engine for w.
func newSolo(w *workload, seed int64, e *env) (*targets.Instance, *core.Fuzzer, error) {
	name, err := e.targetName(w)
	if err != nil {
		return nil, nil, err
	}
	inst, err := targets.Launch(name, targets.LaunchConfig{})
	if err != nil {
		return nil, nil, err
	}
	var agent core.Executor = inst.Agent
	if e.tracer != nil {
		// The target decorator Launch just created records into its own
		// tracer; solo runs are single-goroutine, so point it at the
		// caller's and the exec's spans nest under core.step.
		for _, x := range hub.drain() {
			x.t = e.tracer
		}
		agent = &tracedExec{inner: inst.Agent, t: e.tracer}
	}
	f := core.New(agent, inst.Spec, core.Options{
		Policy:     w.policy,
		Seeds:      inst.Seeds(),
		Rand:       rand.New(rand.NewSource(seed)),
		Dict:       inst.Info.Dict,
		SnapBudget: w.SnapBudget,
	})
	return inst, f, nil
}

func newCampaign(w *workload, seed int64, e *env) (*campaign.Campaign, error) {
	name, err := e.targetName(w)
	if err != nil {
		return nil, err
	}
	return campaign.New(campaign.Config{
		Target:       name,
		Workers:      w.Workers,
		Policy:       w.policy,
		Seed:         seed,
		SyncInterval: time.Duration(w.Sync),
		SnapBudget:   w.SnapBudget,
		SyncMode:     w.syncMode,
	})
}

// setupOnce times one set-up: launch, engine construction and the seed
// import up to the first queued entry. All of it runs on the calling thread
// and is timed on its clock (own), except a campaign's seed import, which
// its workers do on their own goroutines and the wall clock times (fanned).
func setupOnce(w *workload, seed int64) (own, fanned time.Duration, err error) {
	e := &env{}
	t0 := onCPU()
	if w.solo() {
		_, f, err := newSolo(w, seed, e)
		if err != nil {
			return 0, 0, err
		}
		if err := f.Step(); err != nil {
			return 0, 0, err
		}
		if len(f.Queue) == 0 {
			return 0, 0, fmt.Errorf("bench: %s: seed import queued nothing", w.Name)
		}
		return onCPU() - t0, 0, nil
	}
	c, err := newCampaign(w, seed, e)
	if err != nil {
		return 0, 0, err
	}
	own = onCPU() - t0
	// Workers import their seeds on the first scheduling round.
	w0 := now()
	if err := c.RunFor(1); err != nil {
		return 0, 0, err
	}
	if c.CorpusSize() == 0 {
		return 0, 0, fmt.Errorf("bench: %s: seed import queued nothing", w.Name)
	}
	return own, now().Sub(w0), nil
}

// runSolo runs one repetition of a 1-worker workload through core.New.
func runSolo(w *workload, seed int64, e *env) (*repResult, error) {
	heap0 := liveHeap(nil)
	inst, f, err := newSolo(w, seed, e)
	if err != nil {
		return nil, err
	}
	r := &repResult{}
	advance := func(d time.Duration) error {
		if e.tracer == nil {
			err := f.RunFor(d)
			r.Ops.check(err == nil, "RunFor: %v", err)
			return err
		}
		// Traced: the same loop as Fuzzer.RunFor, one span per round.
		for deadline := f.Agent.Now() + d; f.Agent.Now() < deadline; {
			e.tracer.begin(spStep)
			err := f.Step()
			e.tracer.end()
			r.Ops.check(err == nil, "Step: %v", err)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := advance(time.Duration(w.Warmup)); err != nil {
		return nil, err
	}
	r.StartEdges = f.Coverage()
	virt0 := f.Elapsed()
	m := newMeter()
	for i := 0; i < w.Slices; i++ {
		before := f.Execs()
		sw := startWatch()
		if err := advance(time.Duration(w.SliceVirt)); err != nil {
			return nil, err
		}
		wall, own := sw.stop()
		s := sliceSample{Wall: wall, OnCPU: own, Quiet: m.scale(own), Execs: f.Execs() - before, Edges: f.Coverage()}
		r.Slices = append(r.Slices, s)
		r.add(s)
	}
	r.Edges = f.Coverage()
	r.VirtElapsed = f.Elapsed() - virt0
	r.Crashes = f.Crashes
	r.LiveHeapMB = mib(liveHeap(f), heap0)
	r.Counters = counters{
		Execs: f.Execs(), RootExecs: f.RootExecs(), SnapExecs: f.SnapshotExecs(), FullPrefixReexecs: f.FullPrefixReexecs(),
		QueueLen: len(f.Queue), CrashesUnique: len(f.Crashes),
		WorkerExecsMin: f.Execs(), WorkerExecsMax: f.Execs(),
	}
	r.Counters.addPool(f.PoolStats())
	r.Counters.addVM(inst.M.Stats())
	if e.tracer != nil {
		for _, q := range f.Queue {
			r.Corpus = append(r.Corpus, q.Input)
		}
		linkParents(e.tracer.samples)
	}
	return r, nil
}

// runCampaign runs one repetition of a multi-worker workload through
// campaign.New, optionally as run → checkpoint → resume cycles.
func runCampaign(w *workload, seed int64, e *env) (*repResult, error) {
	heap0 := liveHeap(nil)
	c, err := newCampaign(w, seed, e)
	if err != nil {
		return nil, err
	}
	r := &repResult{}
	ran := c // the campaign that last fuzzed: a freshly resumed copy has imported nothing yet
	runFor := func(d time.Duration) error {
		e.begin(spRunFor)
		err := c.RunFor(d)
		e.end()
		r.Ops.check(err == nil, "RunFor: %v", err)
		return err
	}
	// cycle checkpoints c and continues from the resumed copy.
	m := newMeter()
	cycle := func(s *sliceSample) error {
		c2, ckpt, resume, err := roundTrip(c, w.Name, e, m, &r.Ops)
		if err != nil {
			return err
		}
		if s != nil {
			s.Checkpoint, s.Resume = ckpt, resume
		}
		r.Counters.addCampaign(c)
		ran, c = c, c2
		return nil
	}

	if w.CheckpointEachSlice {
		for done := time.Duration(0); done < time.Duration(w.Warmup); done += time.Duration(w.SliceVirt) {
			if err := runFor(time.Duration(w.SliceVirt)); err != nil {
				return nil, err
			}
			if err := cycle(nil); err != nil {
				return nil, err
			}
		}
		r.Counters = counters{} // warm-up cycles are not part of the run
	} else if w.Warmup > 0 {
		if err := runFor(time.Duration(w.Warmup)); err != nil {
			return nil, err
		}
	}
	r.StartEdges = c.Coverage()
	virt0 := c.Elapsed()
	ticks0 := readTicks()
	m.slowness() // a fresh probe before the first timed slice
	for i := 0; i < w.Slices; i++ {
		before := c.Execs()
		t0 := now()
		if err := runFor(time.Duration(w.SliceVirt)); err != nil {
			return nil, err
		}
		s := sliceSample{fanned: now().Sub(t0), slow: m.slowness(), Execs: c.Execs() - before, Edges: c.Coverage()}
		if i == w.Slices-1 {
			// The horizon: the campaign that fuzzed is still the live one.
			r.LiveHeapMB = mib(liveHeap(c), heap0)
			m.slowness() // the collection is not the next unit's work
		}
		if w.CheckpointEachSlice {
			// Execs restart at zero in a resumed campaign: the cycle's
			// count is the whole campaign's, seed re-import included.
			s.Execs = c.Execs()
			if err := cycle(&s); err != nil {
				return nil, err
			}
		}
		s.Wall = now().Sub(t0)
		r.Slices = append(r.Slices, s)
	}
	// RunFor fans out to the workers' goroutines, beyond the thread clock:
	// its wall is scaled by the repetition's steal share, then by the host's
	// slowness around it. Checkpoint and resume ran on this thread and were
	// timed on its clock.
	r.StealShare = stealShare(ticks0, readTicks())
	for i := range r.Slices {
		s := &r.Slices[i]
		run := float64(s.fanned) * (1 - r.StealShare)
		s.OnCPU = time.Duration(run) + s.Checkpoint.cpu + s.Resume.cpu
		s.Quiet = time.Duration(run/s.slow) + s.Checkpoint.ref + s.Resume.ref
		r.add(*s)
	}
	r.Edges = c.Coverage()
	r.VirtElapsed = c.Elapsed() - virt0
	r.Crashes = c.Crashes()
	if !w.CheckpointEachSlice {
		r.Counters.addCampaign(c)
	} else {
		// The last cycle's campaign was counted when it was checkpointed;
		// the resumed copy has run nothing yet.
		r.Counters.CorpusSize, r.Counters.CrashesUnique = c.CorpusSize(), len(c.Crashes())
	}
	if e.tracer != nil {
		seen := hub.drain() // every instance launched, resumed ones included
		for _, x := range seen {
			r.Counters.addVM(x.k.M.Stats())
		}
		r.Counters.SnapExecs = r.Counters.VM.IncRestores
		if !w.CheckpointEachSlice {
			ran = c
		}
		tree, err := ran.CheckpointTree()
		if err != nil {
			return nil, err
		}
		queue := make(map[string][]byte)
		for k, v := range tree {
			if strings.Contains(k, "/queue/") {
				queue[k] = v
			}
		}
		if r.Corpus, err = core.DecodeCorpus(queue); err != nil {
			return nil, err
		}
		linkParents(e.tracer.samples)
		e.tracer.absorb(seen)
	}
	r.Final = c
	return r, nil
}

// absorb folds the worker-side tracers of a campaign run into t, so one
// table holds every span of the run.
func (t *tracer) absorb(workers []*tracedTarget) {
	for _, x := range workers {
		linkParents(x.t.samples)
		for k := range t.agg {
			t.agg[k].Count += x.t.agg[k].Count
			t.agg[k].Total += x.t.agg[k].Total
			t.agg[k].Self += x.t.agg[k].Self
			for b, n := range x.t.agg[k].Hist {
				t.agg[k].Hist[b] += n
			}
		}
		t.units += x.t.units
		base := len(t.samples)
		for _, s := range x.t.samples {
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.samples = append(t.samples, s)
		}
	}
}

func runRep(w *workload, seed int64, e *env) (*repResult, error) {
	if w.solo() {
		return runSolo(w, seed, e)
	}
	return runCampaign(w, seed, e)
}

// reproduceCrashes replays every recorded crash input from the root
// snapshot of a fresh, undecorated instance and checks it crashes the same
// way.
func reproduceCrashes(w *workload, crashes []core.Crash, ops *opCount) error {
	if len(crashes) == 0 {
		return nil
	}
	inst, err := targets.Launch(w.Target, targets.LaunchConfig{})
	if err != nil {
		return err
	}
	var tr coverage.Trace
	for _, c := range crashes {
		res, err := inst.Agent.RunFromRoot(c.Input, &tr)
		if err != nil {
			ops.check(false, "crash %q: %v", c.Key(), err)
			continue
		}
		ok := res.Crashed && res.Crash.Kind == c.Kind && res.Crash.Msg == c.Msg
		ops.check(ok, "crash %q did not reproduce from the root snapshot", c.Key())
	}
	return nil
}
