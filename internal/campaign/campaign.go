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
// That one exchange runs under two schedules (SyncMode):
//
//   - Lockstep (SyncLockstep): workers fuzz in rounds of SyncInterval
//     virtual time and meet at a barrier, where one goroutine runs every
//     worker's exchange in ID order — twice, so each also pulls what the
//     workers after it published — before the imports drain in parallel.
//     During a round a worker touches no shared state, so rounds run on
//     real goroutines yet the campaign stays a pure function of the master
//     seed.
//   - Async (SyncAsync): there is no barrier. Each worker runs epochs of
//     SyncInterval virtual time on its own clock and exchanges from its own
//     goroutine. A slow worker never stalls a fast one — the scaling mode
//     the paper's evaluation assumes. The broker applies each exchange
//     whole under its one lock, so an async run's outcome is that of a
//     serial order of whole exchanges — but which order is up to the
//     scheduler, so async campaigns are not bit-reproducible; seeded
//     experiments that need byte-identical coverage use lockstep.
//
// Campaigns checkpoint to a store tree (per-worker corpora plus broker
// state) and resume from it; see checkpoint.go for the format and the
// determinism contract across resumes.
package campaign

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
	// clocks and goroutines. Scales past the lockstep serialization point
	// but is not bit-reproducible.
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

// Config describes a parallel campaign.
type Config struct {
	// Target is the registered target name (targets.Names lists them).
	Target string
	// Workers is the number of parallel fuzzer instances (default 1).
	Workers int
	// Policy is the snapshot placement policy every worker uses.
	Policy core.Policy
	// Seed is the master seed; worker i fuzzes with an RNG derived
	// deterministically from (Seed, epoch, i).
	Seed int64
	// SyncInterval overrides DefaultSyncInterval when > 0.
	SyncInterval time.Duration
	// Sched is the queue scheduling strategy every worker uses (default
	// core.SchedAFL).
	Sched core.Sched
	// Power is the AFLfast-style power schedule every worker layers on the
	// AFL scheduler (default core.PowerOff).
	Power core.Power
	// SnapBudget, when > 0, enables each worker's prefix-keyed snapshot
	// pool with this byte budget (core.Options.SnapBudget). Slots are
	// per-VM, so the budget is per worker; cross-worker snapshot sharing
	// is an open ROADMAP item.
	SnapBudget int64
	// Asan enables sanitizer instrumentation in every worker's VM.
	Asan bool
	// SyncMode selects lockstep (deterministic, the zero value) or async
	// (barrier-free epoch sync) worker synchronization.
	SyncMode SyncMode
	// epochHook, when set, is called after each async worker finishes an
	// epoch exchange (test instrumentation: the slow-worker isolation test
	// parks one worker here and asserts the others keep their pace).
	epochHook func(worker, epoch int)
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
	// stopped is the sticky graceful-stop flag; both schedules check it
	// between epochs, so a stop always lands on a sync boundary where the
	// campaign is checkpointable.
	stopped atomic.Bool
}

// New launches cfg.Workers fresh instances of the target and wires them to
// a new broker. Every worker starts from the target's bundled seeds.
func New(cfg Config) (*Campaign, error) {
	return newCampaign(cfg.withDefaults(), 0, nil, nil)
}

// workerSeeds is the restored per-worker state a resume feeds back into
// core.New: the saved queue (core.Options.Restored), scheduler metadata to
// re-attach, and the power-schedule state.
type workerSeeds struct {
	queue []*core.QueueEntry
	meta  []core.EntryMeta
	power *core.PowerMeta
}

// newCampaign is shared between New and Resume: epoch tags the RNG
// derivation, seedsFor overrides the initial corpus per worker plus any
// restored scheduler/power metadata (nil means the target's bundled
// seeds), and br supplies restored broker state.
func newCampaign(cfg Config, epoch int, seedsFor func(i int) (workerSeeds, error), br *broker) (*Campaign, error) {
	if cfg.Workers > 1024 {
		return nil, fmt.Errorf("campaign: %d workers is unreasonable", cfg.Workers)
	}
	if cfg.Power != core.PowerOff && cfg.Sched == core.SchedRoundRobin {
		return nil, fmt.Errorf("campaign: power schedule %v requires the afl scheduler (round-robin has no energy function to reshape)", cfg.Power)
	}
	c := &Campaign{cfg: cfg, epoch: epoch, broker: br}
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
// SyncInterval with a broker exchange after each: under the lockstep
// schedule all workers round together and exchange at the barrier, under
// async each runs on its own clock. In both, time spent re-executing
// imported entries counts against each worker's budget (the deadlines are
// absolute), so an N-worker campaign gets the same per-worker virtual time
// as a solo one — sync is paid for, not free. RunFor returns with every
// worker quiesced and all publications in the broker, so the campaign is
// checkpointable between calls.
func (c *Campaign) RunFor(d time.Duration) error {
	if c.cfg.SyncMode == SyncAsync {
		return c.runAsync(d)
	}
	deadlines := make([]time.Duration, len(c.workers))
	for i, w := range c.workers {
		deadlines[i] = w.fz.Elapsed() + d
	}
	behind := func(w *worker) bool { return w.fz.Elapsed() < deadlines[w.id] }
	for !c.stopped.Load() && slices.ContainsFunc(c.workers, behind) {
		if err := c.parallel(func(w *worker) error { return c.fuzzEpoch(w, deadlines[w.id]) }); err != nil {
			return err
		}
		c.rounds++
		if err := c.syncRound(); err != nil {
			return err
		}
	}
	return nil
}

// runAsync extends every worker by d of virtual time with no barrier:
// each worker loops fuzz-epoch → exchange → drain imports on its own
// goroutine and its own clock. A final exchange after the deadline flushes
// whatever the last partial epoch queued, so RunFor returns with the
// broker holding every publication (checkpointable).
func (c *Campaign) runAsync(d time.Duration) error {
	return c.parallel(func(w *worker) error {
		deadline := w.fz.Elapsed() + d
		for !c.stopped.Load() && w.fz.Elapsed() < deadline {
			if err := c.fuzzEpoch(w, deadline); err != nil {
				return err
			}
			if err := c.syncWorker(w); err != nil {
				return err
			}
			if c.cfg.epochHook != nil {
				c.cfg.epochHook(w.id, w.epoch)
			}
		}
		// Final flush: publish anything queued in the last partial epoch
		// (and apply any notices that raced the loop exit).
		return c.syncWorker(w)
	})
}

// fuzzEpoch advances w by one SyncInterval of virtual time, clipped to its
// deadline (a no-op once w is there).
func (c *Campaign) fuzzEpoch(w *worker, deadline time.Duration) error {
	step := min(c.cfg.SyncInterval, deadline-w.fz.Elapsed())
	if step <= 0 {
		return nil
	}
	if err := w.fz.RunFor(step); err != nil {
		return err
	}
	w.epoch++
	return nil
}

// syncRound is the lockstep schedule's barrier: every worker exchanges in
// ID order from this goroutine, so the broker sees a fixed sequence of
// deltas. At its own exchange a worker pulls only what lower IDs published
// before it, so a second pass of empty deltas pulls the rest and no import
// stays pending across the round. Then the imports drain in parallel —
// each worker only touches itself.
func (c *Campaign) syncRound() error {
	held := make([][]importItem, len(c.workers))
	for _, w := range c.workers {
		held[w.id] = c.publish(w)
	}
	for _, w := range c.workers {
		held[w.id] = append(held[w.id], w.exchange(c.broker, epochDelta{elapsed: w.fz.Elapsed()})...)
	}
	return c.parallel(func(w *worker) error { return w.importAll(held[w.id]) })
}

// syncWorker is the async schedule's epoch boundary: w exchanges and
// re-executes what it pulled right away.
func (c *Campaign) syncWorker(w *worker) error {
	return w.importAll(c.publish(w))
}

// publish exchanges everything w queued since its last exchange and
// returns the imports it pulled.
func (c *Campaign) publish(w *worker) []importItem {
	return w.exchange(c.broker, w.buildDelta(c.cfg.Power != core.PowerOff))
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
// counts against its virtual-time budget.
func (w *worker) importAll(items []importItem) error {
	for _, it := range items {
		if _, err := w.fz.ImportInput(it.input); err != nil {
			return err
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

// parallel applies f to every worker concurrently and collects the first
// error (by worker order, so failures are deterministic too).
func (c *Campaign) parallel(f func(*worker) error) error {
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = f(w)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("campaign: worker %d: %w", i, err)
		}
	}
	return nil
}

// maxElapsed returns the slowest worker's virtual campaign time — the
// aggregated campaign clock.
func (c *Campaign) maxElapsed() time.Duration {
	var max time.Duration
	for _, w := range c.workers {
		if el := w.fz.Elapsed(); el > max {
			max = el
		}
	}
	return max
}

// Stop requests a graceful stop: the current RunFor returns after the
// in-flight epoch and its exchange (the lockstep round, or each async
// worker's epoch plus the final flush) complete, leaving the campaign at a
// checkpointable boundary. Safe to call from any goroutine (e.g. a signal
// handler); sticky — subsequent RunFor calls return immediately.
func (c *Campaign) Stop() { c.stopped.Store(true) }

// Stopped reports whether Stop has been called.
func (c *Campaign) Stopped() bool { return c.stopped.Load() }

// ---- Aggregated campaign statistics ----

// Workers returns the number of workers.
func (c *Campaign) Workers() int { return len(c.workers) }

// Target returns the campaign's registered target name.
func (c *Campaign) Target() string { return c.cfg.Target }

// SyncInterval returns the effective lockstep round length — the
// deterministic slicing unit service-mode scheduling must respect
// (RunFor(a); RunFor(b) is not RunFor(a+b) unless both are multiples of
// it).
func (c *Campaign) SyncInterval() time.Duration { return c.cfg.SyncInterval }

// Rounds returns how many lockstep barrier rounds have completed.
func (c *Campaign) Rounds() int { return c.rounds }

// Coverage returns the number of distinct edges in the global virgin map.
func (c *Campaign) Coverage() int { return c.broker.virgin.Edges() }

// SyncMode returns the campaign's worker synchronization mode.
func (c *Campaign) SyncMode() SyncMode { return c.cfg.SyncMode }

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
	// ShardAcquisitions/ShardContended count acquisitions of the broker's
	// one lock (one per exchange) and how many found it already held — the
	// broker-contention signal the -campaign scaling bench and bench/
	// report under these names.
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
		ShardAcquisitions: c.broker.acquisitions,
		ShardContended:    c.broker.contended,
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

// Crashes returns a copy of the globally deduplicated crash findings (the
// broker keeps appending to its own list while workers run).
func (c *Campaign) Crashes() []core.Crash { return slices.Clone(c.broker.crashes) }

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
}

// PerWorker returns each worker's local statistics.
func (c *Campaign) PerWorker() []WorkerStats {
	out := make([]WorkerStats, len(c.workers))
	for i, w := range c.workers {
		ps := w.fz.PoolStats()
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
