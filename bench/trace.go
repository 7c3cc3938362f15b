package main

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/targets"
)

// spanKind names one layer boundary the benchmark can see from outside.
type spanKind uint8

// Span tree of one solo exec: core.step ⊃ netemu.run_* ⊃ targets.*. In a
// campaign the engine builds its own agents, so only the targets.* spans
// (per worker) and the campaign.* / store.* spans (on the caller) exist.
const (
	spStep spanKind = iota
	spRunRoot
	spRunSnapshot
	spRunCreate
	spRunSuffix
	spOnConnect
	spOnPacket
	spOnDisconnect
	spSaveState
	spLoadState
	spRunFor
	spCheckpoint
	spResume
	spPutTree
	spGetTree
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	spStep:         "core.step",
	spRunRoot:      "netemu.run_from_root",
	spRunSnapshot:  "netemu.run_from_snapshot",
	spRunCreate:    "netemu.run_creating_slot",
	spRunSuffix:    "netemu.run_suffix",
	spOnConnect:    "targets.on_connect",
	spOnPacket:     "targets.on_packet",
	spOnDisconnect: "targets.on_disconnect",
	spSaveState:    "targets.save_state",
	spLoadState:    "targets.load_state",
	spRunFor:       "campaign.run_for",
	spCheckpoint:   "campaign.checkpoint_to",
	spResume:       "campaign.resume_from",
	spPutTree:      "store.put_tree",
	spGetTree:      "store.get_tree",
}

func (k spanKind) isExec() bool { return k >= spRunRoot && k <= spRunSuffix }

// sampleEvery is how many execs share one fully recorded span tree.
const sampleEvery = 1000

// spanAgg is the in-memory aggregate of one span name. Self is the span's
// duration minus the part of it its child spans cover.
type spanAgg struct {
	Count uint64        `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
	// Hist[i] counts spans whose duration in ns has bit length i
	// (durations in [2^(i-1), 2^i)).
	Hist [40]uint64 `json:"hist_log2_ns"`
}

// spanRecord is one fully recorded span of a sampled exec. Times are ns
// since the tracer was created; Parent indexes the same list (-1 for none).
type spanRecord struct {
	Exec   uint64 `json:"exec"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

type frame struct {
	kind    spanKind
	start   time.Time
	child   time.Duration
	sampled bool
}

// tracer records spans for one goroutine. It is not safe for concurrent
// use: every campaign worker gets its own (through its target decorator),
// and the caller's goroutine has one for the campaign.* and store.* spans.
type tracer struct {
	epoch     time.Time
	stack     []frame
	agg       [nSpanKinds]spanAgg
	units     uint64 // execs seen (sampling key)
	recording bool
	samples   []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: now(), stack: make([]frame, 0, 8)} }

func (t *tracer) begin(k spanKind) {
	// One exec is the sampling unit: an executor span where one exists,
	// otherwise (campaign workers) every top-level span.
	if k.isExec() || (len(t.stack) == 0 && k != spStep) {
		t.units++
		t.recording = t.units%sampleEvery == 0
	}
	t.stack = append(t.stack, frame{kind: k, start: now(), sampled: t.recording})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	end := now()
	d := end.Sub(f.start)
	a := &t.agg[f.kind]
	a.Count++
	a.Total += d
	a.Self += d - f.child
	a.Hist[histBucket(d)]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		t.stack[n-1].sampled = t.stack[n-1].sampled || f.sampled
	}
	if f.sampled {
		t.samples = append(t.samples, spanRecord{
			Exec: t.units, Name: spanNames[f.kind],
			Start: f.start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
			Parent: -1,
		})
	}
	if f.kind.isExec() || len(t.stack) == 0 {
		t.recording = false
	}
	return d
}

func histBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= 40 {
		b = 39
	}
	return b
}

// linkParents fills spanRecord.Parent: spans are appended when they end, so
// a span's parent is the first later record of the same exec that encloses
// it.
func linkParents(recs []spanRecord) {
	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			if recs[j].Start <= recs[i].Start && recs[j].End >= recs[i].End {
				recs[i].Parent = j
				break
			}
		}
	}
}

// ---- core.SlotExecutor decorator ----

// tracedExec wraps the agent the solo fuzzer drives. It changes nothing the
// fuzzer can observe: every call is forwarded with its arguments and
// results untouched.
type tracedExec struct {
	inner core.SlotExecutor
	t     *tracer
}

func (e *tracedExec) RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	e.t.begin(spRunRoot)
	res, err := e.inner.RunFromRoot(in, tr)
	e.t.end()
	return res, err
}

func (e *tracedExec) RunSuffix(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	e.t.begin(spRunSuffix)
	res, err := e.inner.RunSuffix(in, tr)
	e.t.end()
	return res, err
}

func (e *tracedExec) RunCreatingSlot(in *spec.Input, tr *coverage.Trace, fromSlot, newSlot int) (netemu.Result, error) {
	e.t.begin(spRunCreate)
	res, err := e.inner.RunCreatingSlot(in, tr, fromSlot, newSlot)
	e.t.end()
	return res, err
}

func (e *tracedExec) RunFromSnapshot(slot int, in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	e.t.begin(spRunSnapshot)
	res, err := e.inner.RunFromSnapshot(slot, in, tr)
	e.t.end()
	return res, err
}

func (e *tracedExec) HasSnapshot() bool                  { return e.inner.HasSnapshot() }
func (e *tracedExec) DropSnapshot()                      { e.inner.DropSnapshot() }
func (e *tracedExec) Now() time.Duration                 { return e.inner.Now() }
func (e *tracedExec) DropSlot(slot int)                  { e.inner.DropSlot(slot) }
func (e *tracedExec) SlotBytes(slot int) int64           { return e.inner.SlotBytes(slot) }
func (e *tracedExec) SlotProfile(slot int) any           { return e.inner.SlotProfile(slot) }
func (e *tracedExec) SeedSlotProfile(slot int, prof any) { e.inner.SeedSlotProfile(slot, prof) }

// ---- guest.Target decorator ----

// tracedTarget wraps a target's five per-event entry points. Handlers
// signal crashes by panicking, so the spans close in defers.
type tracedTarget struct {
	guest.Target
	t *tracer
	k *guest.Kernel // captured in Init; the way to this worker's vm.Machine stats
}

func (x *tracedTarget) Init(env *guest.Env) error {
	x.k = env.Kernel()
	return x.Target.Init(env)
}

func (x *tracedTarget) OnConnect(env *guest.Env, c *guest.Conn) {
	x.t.begin(spOnConnect)
	defer x.t.end()
	x.Target.OnConnect(env, c)
}

func (x *tracedTarget) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	x.t.begin(spOnPacket)
	defer x.t.end()
	x.Target.OnPacket(env, c, data)
}

func (x *tracedTarget) OnDisconnect(env *guest.Env, c *guest.Conn) {
	x.t.begin(spOnDisconnect)
	defer x.t.end()
	x.Target.OnDisconnect(env, c)
}

func (x *tracedTarget) SaveState(w *guest.StateWriter) {
	x.t.begin(spSaveState)
	defer x.t.end()
	x.Target.SaveState(w)
}

func (x *tracedTarget) LoadState(r *guest.StateReader) {
	x.t.begin(spLoadState)
	defer x.t.end()
	x.Target.LoadState(r)
}

// traceHub registers, once per target, a twin of the target's registry
// entry whose constructor wraps every new instance in a tracedTarget, and
// remembers the instances. Launching the twin's name is the only way to put
// a decorator under an engine that builds its own agents (campaign.New,
// campaign.ResumeFrom); the solo path uses it too so both trace alike.
type traceHub struct {
	mu         sync.Mutex
	registered map[string]bool
	live       []*tracedTarget
}

var hub = traceHub{registered: make(map[string]bool)}

const tracedPrefix = "bench-traced-"

// name returns the registry name of target's traced twin.
func (h *traceHub) name(target string) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	twin := tracedPrefix + target
	if h.registered[target] {
		return twin, nil
	}
	info, ok := targets.Lookup(target)
	if !ok {
		return "", fmt.Errorf("bench: unknown target %q", target)
	}
	cp := *info
	cp.Name = twin
	cp.New = func() guest.Target {
		x := &tracedTarget{Target: info.New(), t: newTracer()}
		h.mu.Lock()
		h.live = append(h.live, x)
		h.mu.Unlock()
		return x
	}
	targets.Register(&cp)
	h.registered[target] = true
	return twin, nil
}

// drain returns the traced instances created since the last drain.
func (h *traceHub) drain() []*tracedTarget {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.live
	h.live = nil
	return out
}

// ---- store.Storer decorator ----

// tracedStore times the two whole-tree operations checkpoints use. (A store
// error fails the CheckpointTo or ResumeFrom around it, which is where it
// is counted.) Spans land on the caller's tracer, under the campaign.checkpoint_to / resume_from span in progress.
// The per-call lists are on the calling thread's clock, or with wallClock
// set on the wall clock: a dir:// store waits for the disk, which a thread
// clock does not see.
type tracedStore struct {
	store.Storer
	t         *tracer
	wallClock bool
	put, get  []time.Duration
}

func (s *tracedStore) PutTree(name string, tree store.Tree) error {
	t0 := onCPU()
	s.t.begin(spPutTree)
	err := s.Storer.PutTree(name, tree)
	d := s.t.end()
	if !s.wallClock {
		d = onCPU() - t0
	}
	s.put = append(s.put, d)
	return err
}

func (s *tracedStore) GetTree(name string) (store.Tree, error) {
	t0 := onCPU()
	s.t.begin(spGetTree)
	tree, err := s.Storer.GetTree(name)
	d := s.t.end()
	if !s.wallClock {
		d = onCPU() - t0
	}
	s.get = append(s.get, d)
	return tree, err
}
