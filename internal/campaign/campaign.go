// Package campaign orchestrates parallel Nyx-Net fuzzing campaigns: N
// independent core.Fuzzer workers, each with its own VM, agent and
// deterministically derived RNG, connected only through a corpus broker —
// the multi-core campaign setup of the paper's evaluation (§5.1 runs every
// experiment as parallel instances; §5.3 shows the snapshot fuzzer scales
// to dozens of cores per host).
//
// The design mirrors AFL's secondary-instance sync protocol, restated as an
// explicit interface contract between otherwise share-nothing workers: at
// an epoch boundary a worker exchanges a delta with the broker (see
// broker.go) — it publishes its new queue entries with their bucketed
// traces, its virgin-map delta, crashes and pick counts; the broker dedups
// the entries against the global virgin map, settles the campaign-wide
// favored competition, and hands back the worker's bounded import queue —
// and then re-executes the pulled imports via core.ImportInput, so nothing
// enters a queue that the local target did not reproduce.
//
// One driver loop, RunFor, makes every exchange on its own goroutine while
// each worker fuzzes and re-executes its imports on a goroutine of its own,
// under either of two schedules (SyncMode):
//
//   - Lockstep (SyncLockstep): workers fuzz in rounds of SyncInterval
//     virtual time and meet at a barrier, where every worker exchanges in
//     ID order — twice, so each also pulls what the workers after it
//     published. The campaign is a pure function of the master seed.
//   - Async (SyncAsync): there is no barrier. A worker exchanges when its
//     epoch ends and the exchange order picks it, then fuzzes on, so a slow
//     worker never stalls a fast one — the scaling mode the paper's
//     evaluation assumes. The broker applies each exchange whole, and the
//     live order (first come, first served) is logged, so an async campaign
//     is reproducible from its exchange order.
//
// Campaigns checkpoint to a store tree (per-worker corpora plus broker
// state) and resume from it; see checkpoint.go for the format and the
// determinism contract across resumes.
package campaign

import (
	"encoding"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/snappool"
	"repro/internal/targets"
)

// DefaultSyncInterval is the virtual time each worker fuzzes between broker
// syncs. AFL syncs secondaries on the order of once a minute of real time;
// with this reproduction's compressed virtual clock one virtual second
// spans many scheduling rounds.
const DefaultSyncInterval = time.Second

// DefaultSnapBudget is the per-worker snapshot-pool byte budget nyx-net and
// the snappool ablation use: 8 MiB — half a default 16 MiB VM, comfortably
// many prefix overlays, small enough that long campaigns exercise eviction.
const DefaultSnapBudget int64 = 8 << 20

// maxWorkers bounds Config.Workers.
const maxWorkers = 1024

// SyncMode selects how workers synchronize through the broker.
type SyncMode int

const (
	// SyncLockstep is the deterministic barrier schedule: all workers round
	// in lockstep and exchange in ID order from one goroutine between
	// rounds. The campaign is a pure function of the master seed — the
	// mode the ablation harness and the determinism tests rely on. The
	// zero value, so pre-async configurations and checkpoints keep their
	// semantics.
	SyncLockstep SyncMode = iota
	// SyncAsync is the barrier-free schedule: workers exchange on their own
	// clocks. Scales past the lockstep serialization point; a run is
	// reproducible from its exchange order.
	SyncAsync
)

// String names the sync mode for flags, manifests and reports.
func (m SyncMode) String() string {
	switch m {
	case SyncLockstep:
		return "lockstep"
	case SyncAsync:
		return "async"
	default:
		return fmt.Sprintf("sync(%d)", int(m))
	}
}

// MarshalText is String, the name ParseSyncMode reads, for a known mode.
func (m SyncMode) MarshalText() ([]byte, error) {
	if m != SyncLockstep && m != SyncAsync {
		return nil, fmt.Errorf("campaign: unknown sync mode %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText is ParseSyncMode.
func (m *SyncMode) UnmarshalText(text []byte) (err error) {
	*m, err = ParseSyncMode(string(text))
	return err
}

// ParseSyncMode maps a flag value to a sync mode.
func ParseSyncMode(name string) (SyncMode, error) {
	switch name {
	case "", "lockstep":
		return SyncLockstep, nil
	case "async":
		return SyncAsync, nil
	default:
		return 0, fmt.Errorf("campaign: unknown sync mode %q (want lockstep | async)", name)
	}
}

// Config describes a parallel campaign. It is the one record of a
// campaign's configuration: nyx-net fills it from its flags, a checkpoint's
// header embeds it, and service.Spec embeds it beside an id and a budget,
// so its JSON keys are the service API's. Its enums travel as the names
// their flags take.
type Config struct {
	// Target is the registered target name (targets.Names lists them).
	Target string `json:"target"`
	// Workers is the number of parallel fuzzer instances (default 1, at
	// most 1024).
	Workers int `json:"workers"`
	// Policy is the snapshot placement policy every worker uses.
	Policy core.Policy `json:"policy"`
	// Seed is the master seed; worker i fuzzes with an RNG derived
	// deterministically from (Seed, epoch, i).
	Seed int64 `json:"seed"`
	// SyncInterval overrides DefaultSyncInterval when > 0.
	SyncInterval time.Duration `json:"sync_interval_ns"`
	// Sched is the queue scheduling strategy every worker uses (default
	// core.SchedAFL).
	Sched core.Sched `json:"sched"`
	// Power is the AFLfast-style power schedule every worker layers on the
	// AFL scheduler (default core.PowerOff; any other needs core.SchedAFL).
	Power core.Power `json:"power"`
	// SnapBudget, when > 0, enables each worker's prefix-keyed snapshot
	// pool with this byte budget (core.Options.SnapBudget). Slots are
	// per-VM, so the budget is per worker; cross-worker snapshot sharing
	// is an open ROADMAP item.
	SnapBudget int64 `json:"snap_budget"`
	// Asan enables sanitizer instrumentation in every worker's VM.
	Asan bool `json:"asan"`
	// SyncMode selects lockstep (deterministic, the zero value) or async
	// (barrier-free epoch sync) worker synchronization.
	SyncMode SyncMode `json:"sync_mode"`
}

// Validate reports whether c describes a campaign this build can run: every
// enum is a known value, there are at most maxWorkers workers, and a power
// schedule runs on the AFL scheduler (round-robin has no energy function to
// reshape). It does not look the target up; launching does.
func (c Config) Validate() error {
	for _, e := range []encoding.TextMarshaler{c.Policy, c.Sched, c.Power, c.SyncMode} {
		if _, err := e.MarshalText(); err != nil {
			return err
		}
	}
	if c.Workers > maxWorkers {
		return fmt.Errorf("campaign: %d workers is more than %d", c.Workers, maxWorkers)
	}
	if c.Power != core.PowerOff && c.Sched != core.SchedAFL {
		return fmt.Errorf("campaign: power schedule %v requires the afl scheduler (round-robin has no energy function to reshape)", c.Power)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	return c
}

// worker is one fuzzer instance plus its publication cursors. Everything
// here is owned by whichever goroutine is running the worker.
type worker struct {
	id   int
	inst *targets.Instance
	fz   *core.Fuzzer
	// synced/crashSynced mark how far into its queue and crash list the
	// worker has already published.
	synced      int
	crashSynced int
	// epoch counts completed fuzzing epochs.
	epoch int
	// pushedVirgin shadows the slice of the worker's virgin map already
	// published, so each delta ships only the new bits (coverage.AppendNewTo).
	pushedVirgin coverage.Virgin
	// byKey indexes the worker's live queue entries by content key so a
	// broker demotion notice (full displacement of an input this worker
	// holds copies of) lands on every copy without scanning the queue.
	byKey map[string][]*core.QueueEntry
	// links records, as each is created, the entries of this worker whose
	// input is a corpus entry's: an import queued from it, a seed a resume
	// gave its input. A checkpoint lists those still in the queue as the
	// corpus entry's holders (checkpoint.go).
	links []link
}

// link is one queue entry created holding the input of the corpus entry
// broker.corpus[corpus].
type link struct {
	corpus int
	entry  *core.QueueEntry
}

// Campaign is a running parallel campaign.
type Campaign struct {
	cfg     Config
	epoch   int // bumped on every resume; feeds RNG derivation
	workers []*worker
	broker  *broker
	rounds  int
	// baseElapsed is the cumulative virtual time of previous epochs
	// (restored from a checkpoint); the campaign clock continues from it.
	baseElapsed time.Duration
	// stopped is the sticky graceful-stop flag; RunFor reads it when it
	// starts or exchanges a step, so a stop always lands on a sync boundary
	// where the campaign is checkpointable.
	stopped atomic.Bool
	// order picks each async exchange (firstCome, unless a test replays or
	// generates one), and exchanges logs the worker of each async exchange
	// the last RunFor made, in order.
	order     exchangeOrder
	exchanges []uint16
	// beforeStep runs at the start of each step, on the worker's goroutine
	// (a test's way to make a step slow).
	beforeStep func(w *worker)
}

// New launches cfg.Workers fresh instances of the target and wires them to
// a new broker. Every worker starts from the target's bundled seeds.
func New(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newCampaign(cfg.withDefaults(), 0, nil, nil)
}

// workerSeeds is the restored per-worker state a resume feeds back into
// core.New: the saved queue (core.Options.Restored), its scheduler metadata
// in the same order (core.Options.SeedMeta), and the power-schedule state.
type workerSeeds struct {
	queue []*core.QueueEntry
	meta  []core.EntryMeta
	power *core.PowerMeta
	links []link // the queue entries given a corpus entry's input
}

// newCampaign is shared between New and Resume: epoch tags the RNG
// derivation, seedsFor overrides the initial corpus per worker plus any
// restored scheduler/power metadata (nil means the target's bundled
// seeds), and br supplies restored broker state. The caller has validated
// cfg.
func newCampaign(cfg Config, epoch int, seedsFor func(i int) (workerSeeds, error), br *broker) (*Campaign, error) {
	c := &Campaign{cfg: cfg, epoch: epoch, broker: br, order: firstCome, beforeStep: func(*worker) {}}
	if c.broker == nil {
		c.broker = newBroker()
	}
	for i := 0; i < cfg.Workers; i++ {
		inst, err := targets.Launch(cfg.Target, targets.LaunchConfig{Asan: cfg.Asan})
		if err != nil {
			return nil, fmt.Errorf("campaign: worker %d: %w", i, err)
		}
		var loaded workerSeeds
		if seedsFor != nil {
			var err error
			if loaded, err = seedsFor(i); err != nil {
				return nil, fmt.Errorf("campaign: worker %d seeds: %w", i, err)
			}
		}
		fz := core.New(inst.Agent, inst.Spec, core.Options{
			Policy:       cfg.Policy,
			Seeds:        inst.Seeds(),
			Restored:     loaded.queue,
			Sched:        cfg.Sched,
			Power:        cfg.Power,
			SeedMeta:     loaded.meta,
			PowerState:   loaded.power,
			TrackRetrims: true,
			SnapBudget:   cfg.SnapBudget,
			Rand:         rand.New(rand.NewSource(deriveSeed(cfg.Seed, epoch, i))),
			Dict:         inst.Info.Dict,
		})
		c.workers = append(c.workers, &worker{
			id: i, inst: inst, fz: fz,
			byKey: make(map[string][]*core.QueueEntry),
			links: loaded.links,
		})
	}
	c.broker.initWorkers(cfg.Workers)
	return c, nil
}

// deriveSeed maps (master seed, epoch, worker) to a per-worker RNG seed via
// a splitmix64 finalizer, so workers explore independently while the whole
// campaign stays a pure function of the master seed.
func deriveSeed(master int64, epoch, worker int) int64 {
	z := uint64(master) ^ uint64(epoch)<<32 ^ uint64(worker+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// RunFor extends the campaign by d of virtual time per worker, in epochs of
// SyncInterval with a broker exchange after each, and returns with every
// worker quiesced and all publications in the broker, so the campaign is
// checkpointable between calls. One loop makes every exchange while each
// worker's step (re-execute the imports its last exchange pulled, then fuzz
// one epoch) runs on a goroutine of its own. Lockstep exchanges a whole
// round of steps in ID order, then again with empty deltas; a round with no
// epoch is the last. Async exchanges each finished worker when the exchange
// order picks it; a step with no epoch, or one finished after Stop, is the
// worker's last, and its exchange the final flush (a lone worker's only
// one). Imports count against each worker's budget: sync is paid for.
func (c *Campaign) RunFor(d time.Duration) error {
	// The loop blocks and wakes at every exchange: on a goroutine of its own
	// it never has to hand over a caller's locked OS thread to do so.
	errc := make(chan error, 1)
	go func() { errc <- c.drive(d) }()
	return <-errc
}

// drive is RunFor's driver loop.
func (c *Campaign) drive(d time.Duration) error {
	n := len(c.workers)
	lockstep := c.cfg.SyncMode == SyncLockstep && n > 1
	c.exchanges = c.exchanges[:0]
	done := make(chan stepDone, n) // one step at a time per worker: no send blocks
	deadlines := make([]time.Duration, n)
	held := make([][]importItem, n) // pulled, not yet re-executed
	last := make([]stepDone, n)
	running := 0
	start := func(id int, fuzz bool) {
		w, items := c.workers[id], held[id]
		held[id] = nil
		running++
		if len(items) == 0 && (!fuzz || w.fz.Elapsed() >= deadlines[id]) {
			done <- stepDone{id: id} // nothing to import or fuzz: no goroutine
			return
		}
		go func() { done <- c.step(w, items, fuzz, fuzz && !lockstep, deadlines[id]) }()
	}
	// exchange hands the broker worker id's delta, built now if its step
	// built none, and holds what it pulls for the worker's next step.
	exchange := func(id int, d *epochDelta) {
		w := c.workers[id]
		if d == nil {
			built := w.buildDelta(c.cfg.Power != core.PowerOff)
			d = &built
		}
		held[id] = append(held[id], w.exchange(c.broker, *d)...)
	}
	live, fuzz := make([]int, n), !c.stopped.Load() // live: an exchange still to make
	for id, w := range c.workers {
		live[id], deadlines[id] = id, w.fz.Elapsed()+d
		start(id, fuzz)
	}
	var ready []int
	var err error
	failed := n // the lowest failing id: a lockstep failure is deterministic
	for running > 0 {
		s := <-done
		running--
		if s.err != nil && s.id < failed {
			failed, err = s.id, fmt.Errorf("campaign: worker %d: %w", s.id, s.err)
		}
		if err != nil || !slices.Contains(live, s.id) {
			continue // failed: drain the rest; or done after its final flush
		}
		last[s.id], ready = s, append(ready, s.id)
		if lockstep {
			if len(ready) < n || !slices.ContainsFunc(last, func(l stepDone) bool { return l.fuzzed }) {
				continue
			}
			ready = ready[:0]
			c.rounds++
			for id := range n {
				exchange(id, last[id].delta)
			}
			for id, w := range c.workers {
				exchange(id, &epochDelta{elapsed: w.fz.Elapsed()})
			}
			fuzz := !c.stopped.Load()
			for id := range n {
				start(id, fuzz)
			}
			continue
		}
		for len(ready) > 0 {
			id := c.order(ready, live)
			if id < 0 {
				break
			}
			ready = slices.DeleteFunc(ready, func(r int) bool { return r == id })
			final := !last[id].fuzzed || c.stopped.Load()
			if final || n > 1 {
				exchange(id, last[id].delta)
				c.exchanges = append(c.exchanges, uint16(id))
			}
			if final {
				live = slices.DeleteFunc(live, func(l int) bool { return l == id })
			}
			start(id, !final)
		}
	}
	return err
}

// exchangeOrder names the worker whose async exchange comes next: one of
// ready, the workers whose step has finished, in the order they finished,
// or -1 to wait for another step to finish. live lists the workers with an
// exchange still to make, ascending. An async campaign's outcome is a
// function of the order of its exchanges, so a fresh campaign given
// another's log (Campaign.exchanges) as its order rebuilds it.
type exchangeOrder func(ready, live []int) int

// firstCome is the live async order: the first worker to finish goes first.
func firstCome(ready, _ []int) int { return ready[0] }

// stepDone is one worker's finished step: whether it fuzzed an epoch, and
// the delta it built for the exchange that follows, if it built one.
type stepDone struct {
	id     int
	fuzzed bool
	delta  *epochDelta
	err    error
}

// step is one worker's turn, on its own goroutine: it re-executes the
// imports its last exchange pulled, then, when fuzz is set and the worker
// is short of its deadline, fuzzes one SyncInterval epoch clipped to it.
// It builds the delta for the exchange that follows when one surely does:
// after an epoch on a worker with peers, and, when flush is set, after no
// epoch (the async final flush). Otherwise the driver builds any it needs.
func (c *Campaign) step(w *worker, items []importItem, fuzz, flush bool, deadline time.Duration) stepDone {
	c.beforeStep(w)
	s := stepDone{id: w.id}
	if s.err = w.importAll(items); s.err != nil {
		return s
	}
	if left := deadline - w.fz.Elapsed(); fuzz && left > 0 {
		if s.err = w.fz.RunFor(min(c.cfg.SyncInterval, left)); s.err != nil {
			return s
		}
		w.epoch++
		s.fuzzed = true
	}
	if s.fuzzed && len(c.workers) > 1 || !s.fuzzed && flush {
		d := w.buildDelta(c.cfg.Power != core.PowerOff)
		s.delta = &d
	}
	return s
}

// exchange hands the broker w's delta, applies the verdicts and notices
// that come back to w's own live entries, feeds the other workers' pick
// totals into its rarity signal, and returns the pulled imports.
func (w *worker) exchange(b *broker, d epochDelta) []importItem {
	won, items, notes, peerPicks, peerSum := b.exchange(w.id, d)
	for i := range d.pubs {
		// Winners are (re-)promoted, locally favored losers demoted — the
		// loser feedback the worker's scheduler reads on its next epoch.
		if won[i] {
			d.pubs[i].entry.GloballyDominated = false
		} else if d.pubs[i].favored {
			d.pubs[i].entry.GloballyDominated = true
		}
	}
	for _, n := range notes {
		for _, e := range w.byKey[n.key] {
			e.GloballyDominated = true
		}
	}
	if peerPicks != nil {
		// The broker returned campaign totals; subtract this worker's own
		// picks so local picks are never double-counted. Without the peer
		// signal an edge the whole campaign has hammered still looks rare
		// to the one worker that happened to pick it seldom.
		for idx, own := range d.picks {
			if rest := peerPicks[idx] - own; rest > 0 {
				peerPicks[idx] = rest
			} else {
				delete(peerPicks, idx)
			}
		}
		w.fz.SetPeerEdgePicks(peerPicks, peerSum-d.pickSum)
	}
	return items
}

// importAll re-executes pulled imports against w's own target, which
// counts against its virtual-time budget, and links each one it queues to
// the corpus entry it came from.
func (w *worker) importAll(items []importItem) error {
	for _, it := range items {
		queued, err := w.fz.ImportInput(it.input)
		if err != nil {
			return err
		}
		if queued && it.corpus >= 0 {
			w.links = append(w.links, link{corpus: it.corpus, entry: w.fz.Queue[len(w.fz.Queue)-1]})
		}
	}
	return nil
}

// buildDelta gathers everything w queued since its last exchange into an
// epochDelta. Traces and inputs are the queue entries' own (see pubDelta).
func (w *worker) buildDelta(power bool) epochDelta {
	var d epochDelta
	fresh := w.fz.Queue[w.synced:]
	w.synced = len(w.fz.Queue)
	d.pubs = make([]pubDelta, 0, len(fresh))
	for _, e := range fresh {
		key := e.Key()
		w.byKey[key] = append(w.byKey[key], e)
		d.pubs = append(d.pubs, pubDelta{
			key:     key,
			fav:     e.FavFactor(),
			favored: e.Favored,
			cov:     e.Cov,
			input:   e.Input,
			entry:   e,
		})
	}
	for _, r := range w.fz.DrainRetrimmed() {
		newKey := r.Entry.Key()
		w.rebind(r.OldKey, newKey, r.Entry)
		d.retrims = append(d.retrims, retrimDelta{oldKey: r.OldKey, newKey: newKey, fav: r.Entry.FavFactor()})
	}
	// Crash records are immutable once the fuzzer stores them (the input
	// is a private clone), so sharing the slice elements is safe.
	d.crashes = append(d.crashes, w.fz.Crashes[w.crashSynced:]...)
	w.crashSynced = len(w.fz.Crashes)
	d.virginDelta = w.fz.Virgin.AppendNewTo(&w.pushedVirgin, nil)
	if power {
		st := w.fz.PowerState()
		d.picks = st.EdgePicks
		for _, n := range st.EdgePicks {
			d.pickSum += n
		}
	}
	d.elapsed = w.fz.Elapsed()
	return d
}

// rebind moves a trimmed entry's byKey binding from its pre-trim content
// key to the trimmed form's key.
func (w *worker) rebind(oldKey, newKey string, e *core.QueueEntry) {
	if oldKey == newKey {
		return
	}
	old := w.byKey[oldKey]
	for i, cand := range old {
		if cand == e {
			old[i] = old[len(old)-1]
			old = old[:len(old)-1]
			break
		}
	}
	if len(old) == 0 {
		delete(w.byKey, oldKey)
	} else {
		w.byKey[oldKey] = old
	}
	w.byKey[newKey] = append(w.byKey[newKey], e)
}

// maxElapsed returns the slowest worker's virtual campaign time — the
// aggregated campaign clock.
func (c *Campaign) maxElapsed() time.Duration {
	var m time.Duration
	for _, w := range c.workers {
		m = max(m, w.fz.Elapsed())
	}
	return m
}

// Stop requests a graceful stop: the current RunFor returns once the
// in-flight steps are exchanged (the lockstep round, or each async worker's
// final flush), leaving the campaign at a checkpointable boundary. Safe to call from any goroutine (e.g. a signal
// handler); sticky — subsequent RunFor calls return immediately.
func (c *Campaign) Stop() { c.stopped.Store(true) }

// Stopped reports whether Stop has been called.
func (c *Campaign) Stopped() bool { return c.stopped.Load() }

// ---- Aggregated campaign statistics ----

// Workers returns the number of workers.
func (c *Campaign) Workers() int { return len(c.workers) }

// Config returns the campaign's configuration with its defaults filled in:
// after a resume, the one its checkpoint recorded. Its SyncInterval is the
// deterministic slicing unit service-mode scheduling must respect
// (RunFor(a); RunFor(b) is not RunFor(a+b) unless both are multiples of
// it).
func (c *Campaign) Config() Config { return c.cfg }

// Rounds returns how many lockstep barrier rounds have completed (a lone
// worker meets no barrier).
func (c *Campaign) Rounds() int { return c.rounds }

// Coverage returns the number of distinct edges in the global virgin map.
func (c *Campaign) Coverage() int { return c.broker.virgin.Edges() }

// SyncStats reports the broker synchronization cost counters. Read it
// between RunFor calls (like every other accessor).
type SyncStats struct {
	Mode SyncMode
	// Epochs counts broker exchanges (async: one per worker per epoch plus
	// a flush per RunFor; lockstep: two per worker per round).
	Epochs uint64
	// SyncWall is cumulative wall-clock time spent inside broker
	// exchanges (import re-execution excluded).
	SyncWall time.Duration
	// ShardAcquisitions restates Epochs and ShardContended is 0: one driver
	// loop makes every exchange, and the broker has no lock to contend.
	// They stay because bench/ reads them.
	ShardAcquisitions uint64
	ShardContended    uint64
	// ImportsDropped counts pending-import entries dropped at full
	// per-worker queues.
	ImportsDropped uint64
}

// SyncStats returns the campaign's accumulated sync-cost counters.
func (c *Campaign) SyncStats() SyncStats {
	return SyncStats{
		Mode:              c.cfg.SyncMode,
		Epochs:            c.broker.epochsTotal,
		SyncWall:          c.broker.syncWall,
		ShardAcquisitions: c.broker.epochsTotal,
		ImportsDropped:    c.broker.importsDropped,
	}
}

// Execs returns total executions across all workers.
func (c *Campaign) Execs() uint64 {
	var n uint64
	for _, w := range c.workers {
		n += w.fz.Execs()
	}
	return n
}

// Elapsed returns the campaign's cumulative virtual duration (per worker,
// not summed), including time from epochs before a checkpoint/resume.
func (c *Campaign) Elapsed() time.Duration { return c.baseElapsed + c.maxElapsed() }

// ExecsPerSecond returns aggregate throughput: total executions divided by
// per-worker virtual time — N ideally-scaling workers report ~N times a
// single worker's rate. Both counters cover the current epoch only (Execs
// does not survive a resume, so earlier epochs' time is excluded too).
func (c *Campaign) ExecsPerSecond() float64 {
	el := c.maxElapsed().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(c.Execs()) / el
}

// Crashes returns a copy of the global crash buckets (the broker keeps
// appending to its own list while workers run).
func (c *Campaign) Crashes() []core.Crash { return slices.Clone(c.broker.Crashes) }

// CoverageLog returns a copy of the aggregated coverage-over-time series.
func (c *Campaign) CoverageLog() []core.CoveragePoint { return slices.Clone(c.broker.covLog) }

// CorpusSize returns the number of globally fresh entries the broker has
// accepted.
func (c *Campaign) CorpusSize() int { return len(c.broker.corpus) }

// Deduped returns how many published entries the broker dropped as global
// duplicates.
func (c *Campaign) Deduped() uint64 { return c.broker.deduped }

// WorkerStats describes one worker's contribution.
type WorkerStats struct {
	ID       int
	Execs    uint64
	Coverage int
	Queue    int
	Crashes  int
	// Snapshot-pool counters (zero when the pool is disabled).
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	PoolBytes     int64
	// SnapshotExecs counts the executions that resumed from an incremental
	// snapshot; Restores and RestoreWall are the worker's machine's restores
	// of both kinds and their estimated wall time (vm.MachineStats). Like
	// Execs, they count since the worker's launch.
	SnapshotExecs uint64
	Restores      uint64
	RestoreWall   time.Duration
}

// PerWorker returns each worker's local statistics.
func (c *Campaign) PerWorker() []WorkerStats {
	out := make([]WorkerStats, len(c.workers))
	for i, w := range c.workers {
		ps, ms := w.fz.PoolStats(), w.inst.M.Stats()
		out[i] = WorkerStats{
			ID:            w.id,
			Execs:         w.fz.Execs(),
			Coverage:      w.fz.Coverage(),
			Queue:         len(w.fz.Queue),
			Crashes:       len(w.fz.Crashes),
			PoolHits:      ps.Hits,
			PoolMisses:    ps.Misses,
			PoolEvictions: ps.Evictions,
			PoolBytes:     ps.Bytes,
			SnapshotExecs: w.fz.SnapshotExecs(),
			Restores:      ms.RootRestores + ms.IncRestores,
			RestoreWall:   ms.RestoreWall,
		}
	}
	return out
}

// PoolStats returns the snapshot-pool counters aggregated across workers:
// every field is the sum of the workers' (PeakBytes is the sum of per-worker
// peaks, since each worker's budget is independent).
func (c *Campaign) PoolStats() snappool.Stats {
	var agg snappool.Stats
	for _, w := range c.workers {
		st := w.fz.PoolStats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.DigestHits += st.DigestHits
		agg.Evictions += st.Evictions
		agg.Uncacheable += st.Uncacheable
		agg.Bytes += st.Bytes
		agg.PeakBytes += st.PeakBytes
		agg.Slots += st.Slots
		agg.LookupWall += st.LookupWall
		agg.Lookups += st.Lookups
	}
	return agg
}

// RootExecs returns the campaign-wide count of whole-input root
// executions.
func (c *Campaign) RootExecs() uint64 {
	var n uint64
	for _, w := range c.workers {
		n += w.fz.RootExecs()
	}
	return n
}

// FullPrefixReexecs returns the campaign-wide count of snapshot-creation
// runs that re-executed a full prefix from the root (the redundancy the
// snapshot pool eliminates).
func (c *Campaign) FullPrefixReexecs() uint64 {
	var n uint64
	for _, w := range c.workers {
		n += w.fz.FullPrefixReexecs()
	}
	return n
}
