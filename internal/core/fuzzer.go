// Package core implements the Nyx-Net fuzzer itself — the paper's primary
// contribution: a coverage-guided, snapshot-based fuzzer for stateful
// message-passing targets. It drives the netemu agent with bytecode inputs,
// schedules incremental snapshots according to the three placement policies
// of §3.4 (none / balanced / aggressive), maintains the queue and global
// coverage map, and records the campaign telemetry the evaluation harness
// turns into the paper's tables and figures.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/snappool"
	"repro/internal/spec"
)

// Policy selects the snapshot placement strategy (§3.4).
type Policy int

// Snapshot placement policies.
const (
	// PolicyNone always uses the root snapshot (the Nyx-Net-none
	// baseline).
	PolicyNone Policy = iota
	// PolicyBalanced uses the root in 4% of schedules; otherwise a
	// random packet index in the whole input (50%) or in the second
	// half (50%). Inputs with at most four packets use the root.
	PolicyBalanced
	// PolicyAggressive cycles the snapshot position from the end of the
	// input towards the front, retreating one packet each time 50
	// iterations find nothing new.
	PolicyAggressive
)

// String names the policy as the paper does.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "nyxnet-none"
	case PolicyBalanced:
		return "nyxnet-balanced"
	case PolicyAggressive:
		return "nyxnet-aggressive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// policyNames are the policies' flag and service-spec names.
var policyNames = [...]string{PolicyNone: "none", PolicyBalanced: "balanced", PolicyAggressive: "aggressive"}

// ParsePolicy maps a CLI/API policy name to its Policy value.
func ParsePolicy(name string) (Policy, error) {
	if i := slices.Index(policyNames[:], name); i >= 0 {
		return Policy(i), nil
	}
	return 0, fmt.Errorf("core: unknown policy %q (want none | balanced | aggressive)", name)
}

// MarshalText names the policy the way ParsePolicy reads it, so a Policy is
// a flag.TextVar value and a JSON name.
func (p Policy) MarshalText() ([]byte, error) {
	if p < 0 || int(p) >= len(policyNames) {
		return nil, fmt.Errorf("core: unknown policy %d", int(p))
	}
	return []byte(policyNames[p]), nil
}

// UnmarshalText is ParsePolicy.
func (p *Policy) UnmarshalText(text []byte) (err error) {
	*p, err = ParsePolicy(string(text))
	return err
}

// MinPacketsForSnapshot: below this input length both placement policies
// fall back to the root snapshot (§3.4: "for sequences smaller than four
// packets, both policies select the root snapshot").
const MinPacketsForSnapshot = 4

// DefaultSnapshotReuse is how many test cases run against one incremental
// snapshot before it is discarded (§3.4: "reusing the snapshot as little
// as 50 times yields significant performance increases").
const DefaultSnapshotReuse = 50

// AggressiveRetreatThreshold is how many unproductive executions the
// aggressive policy tolerates at one snapshot position before retreating a
// packet towards the front (§3.4: the position moves "each time 50
// iterations find nothing new"). Independent of SnapshotReuse: with a
// smaller reuse count it simply takes several barren rounds to retreat.
const AggressiveRetreatThreshold = 50

// QueueEntry is one interesting input.
type QueueEntry struct {
	// ID is the entry's index in the fuzzer's Queue; until the first Step
	// queues it, a seed's index among the seeds New was given.
	ID int
	// Input is never written once queued (a trim replaces the pointer), so
	// children, trim candidates and broker publications share its ops
	// uncopied, as it shares its parent's payloads — see package spec.
	Input   *spec.Input
	Packets int
	FoundAt time.Duration // virtual time of discovery
	// Cov is the bucketed coverage snapshot of the execution that queued
	// this entry. A campaign broker uses it to dedup entries published by
	// independent workers against a global virgin map without replaying
	// them.
	Cov []coverage.BucketHit
	// Scheduler metadata (schedule.go): the virtual time of the execution
	// that queued the entry, its serialized size, how many derivations it
	// sits from a seed, how many rounds it has been scheduled, whether
	// the lazy trim ran, and whether it was in the favored set as of the
	// last pick (the cull runs only there, so a top-rated change since then
	// shows at the next one).
	ExecTime time.Duration
	Size     int
	Depth    int
	Picked   int
	Trimmed  bool
	Favored  bool
	// GloballyDominated marks an entry the campaign broker's global
	// favored competition demoted: it is (or was) locally favored, but a
	// cheaper entry on another worker covers every edge it is top-rated
	// for. The scheduler treats such entries as non-favored when skipping
	// re-picks, so campaign-wide queue time follows the global ranking
	// instead of N per-worker ones. Set only by the broker (between
	// rounds, single-threaded); sticky until the broker revokes it.
	GloballyDominated bool
	// favAt is one more than the top-rated edge the cull chose this entry
	// at, or 0 while it holds no choice (cullQueue).
	favAt uint32
	// aggressive-policy state: how many packets from the end the next
	// snapshot goes, and unproductive iterations at the current spot.
	aggrBack   int
	aggrBarren int
	// prefixDigests memoizes the snapshot-pool content key of this entry's
	// prefix per marker position, so repeat pool rounds on an unchanged
	// input skip hashing entirely (snappool.Pool.LookupDigest). Invalidated
	// whenever the entry's input changes (trim).
	prefixDigests map[int]snappool.Digest
	// enc memoizes the input's content key and bytes (Key, Bytes) behind a
	// pointer, so an entry nothing encodes — every entry of a solo run —
	// pays for neither; trimEntry drops it with the input.
	enc *encoding
}

// encoding is what a QueueEntry memoizes of its input, each part on first
// use: InputKey and spec.Serialize.
type encoding struct {
	key   string
	bytes []byte
}

func (e *QueueEntry) memo() *encoding {
	if e.enc == nil {
		e.enc = new(encoding)
	}
	return e.enc
}

// Key returns the content key of the entry's input (InputKey), hashed on
// first use and kept until a trim installs another input, so the campaign
// worker's key index, its publications and the checkpoint share one hash
// per entry. It writes the entry: owner only.
func (e *QueueEntry) Key() string {
	m := e.memo()
	if m.key == "" {
		m.key = InputKey(e.Input)
	}
	return m.key
}

// Bytes returns spec.Serialize of the entry's input, encoded on first use and
// kept, like the key, until a trim installs another input: checkpoints write
// an entry's bytes once in its life, not once each. The result is shared:
// never write it. It writes the entry: owner only.
func (e *QueueEntry) Bytes() []byte {
	m := e.memo()
	if m.bytes == nil {
		m.bytes = spec.Serialize(e.Input)
	}
	return m.bytes
}

// Encodings is a slab of the memos QueueEntry keeps its key and bytes in:
// a decoder that restores many entries takes theirs from one allocation.
type Encodings []encoding

// MakeEncodings returns a slab of n memos.
func MakeEncodings(n int) Encodings { return make(Encodings, n) }

// Set hands e the content key and serialized bytes of its input that the
// caller already holds (a resume reads both from the checkpoint, beside the
// input), in the memo s[i], so that Key and Bytes compute neither. An empty
// key or nil bytes leaves that one to be computed on first use.
func (s Encodings) Set(i int, e *QueueEntry, key string, bytes []byte) {
	s[i] = encoding{key, bytes}
	e.enc = &s[i]
}

// Crash is a deduplicated crash finding.
type Crash struct {
	Kind    guest.CrashKind
	Msg     string
	Input   *spec.Input
	FoundAt time.Duration
	Execs   uint64
}

// Key identifies a crash for deduplication. Every layer that dedups
// crashes (the fuzzer's local map, the campaign broker's global one, and
// checkpoint resume) must use this same key.
func (c Crash) Key() string { return string(c.Kind) + "|" + c.Msg }

// CoveragePoint is one sample of the coverage-over-time series (Figure 5).
type CoveragePoint struct {
	T     time.Duration `json:"t_ns"`
	Edges int           `json:"edges"`
}

// Options configures a fuzzing campaign.
type Options struct {
	Policy Policy
	Seeds  []*spec.Input
	// Restored, when not empty, replaces Seeds with the queue a checkpoint
	// saved, as entries holding an unmarked input and whatever key and bytes
	// the checkpoint had for it (Encodings.Set). An entry that re-queues is
	// itself the new queue entry: the fuzzer takes them over, numbering them
	// by position (QueueEntry.ID) first.
	Restored []*QueueEntry
	// SnapshotReuse overrides DefaultSnapshotReuse when > 0. It is the
	// baseline execution budget of one scheduling round (keeps round lengths
	// comparable across policies): under SchedAFL the energy function scales
	// it per entry; under SchedRoundRobin it is used as-is.
	SnapshotReuse int
	// Rand is the campaign RNG (deterministic experiments pass seeded
	// sources). Required.
	Rand *rand.Rand
	// Dict is an optional protocol token dictionary for the mutators.
	Dict [][]byte
	// Sched selects the queue scheduling strategy (default SchedAFL).
	Sched Sched
	// Power selects the AFLfast-style power schedule layered on the AFL
	// scheduler (default PowerOff: the baseline-clamped energy function).
	Power Power
	// SeedMeta is the scheduler metadata a checkpoint saved for the seeds,
	// by position: SeedMeta[i] belongs to Restored[i] (or Seeds[i] when
	// Restored is empty) — the checkpoint/resume path. A seed with metadata
	// re-queues whatever its re-run covers, and takes it. The fuzzer drops
	// the slice once the first Step has imported the seeds.
	SeedMeta []EntryMeta
	// PowerState restores the per-edge pick-frequency map and total pick
	// count (the checkpoint/resume path for power schedules).
	PowerState *PowerMeta
	// TrackRetrims records lazy trims for DrainRetrimmed. Set by the
	// campaign layer, whose broker drains the list every sync to keep
	// global claims priced at post-trim cost; solo runs leave it off so
	// the undrained list cannot grow for the life of the process.
	TrackRetrims bool
	// SnapBudget, when > 0, enables the prefix-keyed snapshot pool with
	// this many bytes of slot overlay memory: snapshots survive entry
	// switches and are shared across queue entries with common prefixes,
	// with LRU + cheapest-to-recreate-first eviction keeping the pool
	// under budget. At 0 each snapshot round creates its own snapshot and
	// releases it at the round's end (§3.4). Snapshots, pooled or not, need
	// an executor implementing SlotExecutor (netemu.Agent does); with any
	// other executor SnapBudget and the placement Policy are silently
	// ignored and every round runs from the root, so baseline executors
	// keep working unchanged.
	SnapBudget int64
}

// Executor abstracts how test cases reach the target. Nyx-Net's executor
// is the netemu.Agent (snapshot-based, emulated network); the baseline
// fuzzers in package baseline provide executors that model real-socket
// delivery, process restarts and fixed sleeps. The campaign logic on top
// is identical, which is exactly how the paper's comparison is set up (all
// fuzzers share AFL-style campaign structure; the execution mechanism is
// the variable). An Executor that is not also a SlotExecutor never runs
// from an incremental snapshot: every round of it runs from the root.
type Executor interface {
	// RunFromRoot executes a whole input, which carries no snapshot
	// marker, from a clean target state.
	RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error)
	// Now returns the executor's virtual time.
	Now() time.Duration
}

// SlotExecutor is the executor extension incremental snapshots need: named
// snapshot slots that survive root runs and restores of one another.
// netemu.Agent implements it; the restart-based baseline executors do not,
// which is the point of the comparison. A round without the snapshot pool
// is the paper's one-snapshot model (§3.4) on slot 0: RunCreatingSlot from
// the root into slot 0, RunFromSnapshot(0, …) for each of the round's
// executions, then DropSnapshot.
type SlotExecutor interface {
	Executor
	// RunCreatingSlot executes in, creating a snapshot into newSlot at
	// in.SnapshotAt; fromSlot >= 0 resumes from that slot's prefix first.
	RunCreatingSlot(in *spec.Input, tr *coverage.Trace, fromSlot, newSlot int) (netemu.Result, error)
	// RunFromSnapshot executes in.Ops[SnapshotAt:] resuming from slot.
	RunFromSnapshot(slot int, in *spec.Input, tr *coverage.Trace) (netemu.Result, error)
	// DropSlot releases a pooled snapshot slot.
	DropSlot(slot int)
	// DropSnapshot releases slot 0, the one snapshot of a pool-off round.
	DropSnapshot()
	// SlotBytes returns the slot's guest-memory charge for the budget.
	SlotBytes(slot int) int64
	// RunSuffix, HasSnapshot, SlotProfile and SeedSlotProfile are never
	// called. They are kept only because bench/'s executor decorator
	// forwards them, and go when it stops.
	RunSuffix(in *spec.Input, tr *coverage.Trace) (netemu.Result, error)
	HasSnapshot() bool
	SlotProfile(slot int) any
	SeedSlotProfile(slot int, prof any)
}

// Fuzzer is a Nyx-Net campaign against one target.
type Fuzzer struct {
	Agent Executor
	Spec  *spec.Spec
	Mut   *spec.Mutator

	Virgin  coverage.Virgin
	Queue   []*QueueEntry
	Crashes []Crash

	opts       Options
	rng        *rand.Rand
	trace      coverage.Trace
	nextID     int
	execs      uint64
	snapExecs  uint64 // executions served from an incremental snapshot
	rootExecs  uint64 // executions that ran the whole input from the root
	prefixRuns uint64 // snapshot-creation runs that re-executed a full prefix from root
	crashSeen  map[string]bool
	covLog     []CoveragePoint
	started    time.Duration
	seeds      []*QueueEntry // what the first Step imports (Seeds or Restored)
	seedsDone  bool
	queueCur   int
	lastSample time.Duration

	// Scheduler state (schedule.go).
	sched            Sched
	topRated         []topEdge         // every edge some entry covers, ascending, with its winner and cull state
	cullDirty        [cullWords]uint64 // edges the next cull re-decides
	dirtyLo, dirtyHi int               // cullDirty words outside [dirtyLo, dirtyHi) are zero
	pendingNew       int               // queue entries never picked yet (the frontier)
	curParent        *QueueEntry       // entry being fuzzed (depth attribution)
	lastExecTime     time.Duration     // full-run virtual cost of the latest execution
	snapBaseTime     time.Duration     // prefix share of the run that created the round's snapshot
	trimTime         time.Duration     // virtual time consumed by the lazy trim
	execTimeSum      time.Duration     // running sum of Queue ExecTimes (energy's O(1) average)
	retrimmed        []Retrim          // trims since the last DrainRetrimmed
	pkts             []int             // placeSnapshot's scratch: the picked entry's packet op indices
	base             spec.Input        // the round's input with its snapshot marker, when it has one

	// Power-schedule state (schedule.go).
	power       Power
	edgePicks   map[uint32]uint64 // edge index -> picks of entries covering it
	edgePickSum uint64            // sum of edgePicks values (O(1) mean)
	totalPicked uint64            // picks across all entries (campaign horizon)
	peerPicks   map[uint32]uint64 // other workers' picks per edge (broker feedback)
	peerPickSum uint64            // sum of peerPicks values

	// Snapshot-pool state (nil/zero when the pool is disabled).
	slotExec SlotExecutor
	pool     *snappool.Pool
}

// New creates a fuzzer. The agent's machine must already hold a root
// snapshot (agent targets signal HcReady after Init).
func New(agent Executor, s *spec.Spec, opts Options) *Fuzzer {
	if opts.Rand == nil {
		panic("core: Options.Rand is required for deterministic campaigns")
	}
	if opts.SnapshotReuse <= 0 {
		opts.SnapshotReuse = DefaultSnapshotReuse
	}
	mut := spec.NewMutator(s, opts.Rand)
	mut.Dict = opts.Dict
	seeds := opts.Restored
	if len(seeds) == 0 {
		seeds = make([]*QueueEntry, len(opts.Seeds))
		for i, in := range opts.Seeds {
			seeds[i] = &QueueEntry{Input: &spec.Input{Ops: slices.Clone(in.Ops), SnapshotAt: -1}}
		}
	}
	for i, e := range seeds {
		e.ID = i
	}
	f := &Fuzzer{
		Agent:     agent,
		Spec:      s,
		Mut:       mut,
		opts:      opts,
		rng:       opts.Rand,
		crashSeen: make(map[string]bool),
		started:   agent.Now(),
		seeds:     seeds,
		sched:     opts.Sched,
		dirtyLo:   cullWords,
		power:     opts.Power,
		edgePicks: make(map[uint32]uint64),
	}
	if opts.PowerState != nil {
		f.totalPicked = opts.PowerState.TotalPicked
		for idx, n := range opts.PowerState.EdgePicks {
			f.edgePicks[idx] = n
			f.edgePickSum += n
		}
	}
	if se, ok := agent.(SlotExecutor); ok {
		f.slotExec = se
		if opts.SnapBudget > 0 {
			f.pool = snappool.New(opts.SnapBudget)
		}
	}
	return f
}

// Execs returns the number of test cases executed so far.
func (f *Fuzzer) Execs() uint64 { return f.execs }

// SnapshotExecs returns how many executions resumed from an incremental
// snapshot.
func (f *Fuzzer) SnapshotExecs() uint64 { return f.snapExecs }

// RootExecs returns how many executions ran their whole input from the
// root snapshot (includes seed imports, non-snapshot rounds and trims, so
// it scales with round throughput).
func (f *Fuzzer) RootExecs() uint64 { return f.rootExecs }

// FullPrefixReexecs returns how many snapshot-creation runs re-executed
// their entire prefix from the root — the redundant re-execution the
// snapshot pool exists to kill (the snappool ablation's comparison
// metric). A pool-off round pays one per snapshot round; the pool pays one
// only when neither the exact prefix nor any shorter prefix of it is
// cached (a pool hit skips the run entirely, a chained creation resumes
// from the longest cached prefix and only executes the uncached tail).
func (f *Fuzzer) FullPrefixReexecs() uint64 { return f.prefixRuns }

// PoolStats returns the snapshot pool's counters (zero when the pool is
// disabled).
func (f *Fuzzer) PoolStats() snappool.Stats {
	if f.pool == nil {
		return snappool.Stats{}
	}
	return f.pool.Stats()
}

// PoolEnabled reports whether the prefix-keyed snapshot pool is active.
func (f *Fuzzer) PoolEnabled() bool { return f.pool != nil }

// Coverage returns the number of distinct edges found so far.
func (f *Fuzzer) Coverage() int { return f.Virgin.Edges() }

// CoverageLog returns a copy of the coverage-over-time series (the fuzzer
// keeps appending to its own log as it runs).
func (f *Fuzzer) CoverageLog() []CoveragePoint { return slices.Clone(f.covLog) }

// Elapsed returns virtual campaign time.
func (f *Fuzzer) Elapsed() time.Duration { return f.Agent.Now() - f.started }

// ExecsPerSecond returns throughput in executions per virtual second.
func (f *Fuzzer) ExecsPerSecond() float64 {
	el := f.Elapsed().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(f.execs) / el
}

// RunFor fuzzes until d of virtual time has elapsed (measured on the
// machine's clock). It is resumable: call repeatedly to extend a campaign.
func (f *Fuzzer) RunFor(d time.Duration) error {
	deadline := f.Agent.Now() + d
	for f.Agent.Now() < deadline {
		if err := f.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step performs one scheduling round: import seeds on the first call, then
// pick a queue entry, place a snapshot per policy, and run a batch of
// mutated test cases.
func (f *Fuzzer) Step() error {
	if !f.seedsDone {
		seeds, meta := f.seeds, f.opts.SeedMeta
		f.seedsDone, f.seeds, f.opts.SeedMeta = true, nil, nil
		for i, seed := range seeds {
			if err := f.Spec.Validate(seed.Input); err != nil {
				return fmt.Errorf("core: invalid seed: %w", err)
			}
			var m *EntryMeta
			if i < len(meta) {
				m = &meta[i]
			}
			if _, err := f.execFromRoot(seed.Input, seed, m); err != nil {
				return err
			}
		}
		if len(f.Queue) > 0 {
			return nil
		}
	}
	if len(f.Queue) == 0 {
		// Seedless bootstrap: generate random programs.
		in := f.Mut.Generate(0)
		_, err := f.execFromRoot(in, nil, nil)
		return err
	}

	entry := f.pickEntry()
	f.curParent = entry
	defer func() { f.curParent = nil }()
	if f.sched != SchedRoundRobin && entry.Favored && !entry.Trimmed &&
		f.trimTime*100 <= f.Elapsed()*trimBudgetPct {
		if err := f.trimEntry(entry); err != nil {
			return err
		}
	}
	budget := f.energy(entry)
	snapAt := f.placeSnapshot(entry)
	if snapAt < 0 {
		return f.fuzzFromRoot(entry, budget)
	}
	f.base = spec.Input{Ops: entry.Input.Ops, SnapshotAt: snapAt}
	return f.fuzzWithSnapshot(entry, &f.base, snapAt, budget)
}

// roundSlot is the slot a pool-off round creates and releases: id 0, which
// netemu.Agent reserves for it (DropSnapshot releases it) and
// snappool.Pool.AllocSlot never hands out.
const roundSlot = 0

// fuzzWithSnapshot runs one incremental-snapshot round (§3.4, Figure 4):
// resolve or create the slot for base's prefix at snapAt, then spend the
// budget on suffix-only mutations resumed from it. A round that finds
// nothing new counts against the aggressive policy's position. With the pool
// the slot stays pooled after the round, and the next round with the same
// prefix, on this entry or any other sharing it, skips the creation run
// entirely. Without it every round is the paper's own: a miss that creates
// roundSlot and releases it at the end.
func (f *Fuzzer) fuzzWithSnapshot(entry *QueueEntry, base *spec.Input, snapAt, budget int) error {
	slot, prefixCost, kept, ok, err := f.ensureSlot(entry, base, snapAt, budget)
	if err != nil {
		return err
	}
	if !ok {
		// The prefix crashes before the marker, and ensureSlot charged the
		// round as barren: spend its budget from the root rather than
		// burning a whole schedule on one execution.
		return f.fuzzFromRoot(entry, budget)
	}
	f.snapBaseTime = prefixCost
	foundNew := false
	for i := 0; i < budget; i++ {
		mut := f.Mut.MutateSuffix(base, snapAt)
		mut.SnapshotAt = snapAt
		isNew, err := f.execSuffix(slot, mut)
		if err != nil {
			return err
		}
		foundNew = foundNew || isNew
	}
	if foundNew {
		entry.aggrBarren = 0
	} else {
		f.chargeBarren(entry, budget)
	}
	switch {
	case f.pool == nil:
		f.slotExec.DropSnapshot()
	case !kept:
		// The snapshot alone exceeded the whole budget: it served this
		// round like a pool-off snapshot and dies with it.
		f.slotExec.DropSlot(slot)
	}
	return nil
}

// ensureSlot resolves the snapshot slot for base's prefix ending at snapAt.
// A pool hit returns the cached slot. A miss creates one, resuming from the
// longest pooled strict prefix of base when one exists, so even creation
// re-executes as little as possible, and pools it, dropping whatever the
// budget evicts. Without a pool every call is a miss that creates roundSlot
// from the root. ok is false when the creation run never reached the marker
// (crashing prefix); kept is false for a slot the caller must release after
// the round (roundSlot, or one too large to pool).
func (f *Fuzzer) ensureSlot(entry *QueueEntry, base *spec.Input, snapAt, budget int) (slot int, prefixCost time.Duration, kept, ok bool, err error) {
	fromSlot, newSlot, parentOps := -1, roundSlot, 0
	var parentCost time.Duration
	var digest snappool.Digest
	if f.pool != nil {
		var hit, parent *snappool.Entry
		hit, parent, digest = f.resolvePrefix(entry, base, snapAt)
		if hit != nil {
			return hit.Slot, hit.PrefixCost, true, true, nil
		}
		// Miss: create, starting from the longest cached strict prefix.
		if parent != nil {
			f.pool.Touch(parent)
			fromSlot, parentOps, parentCost = parent.Slot, parent.Ops, parent.PrefixCost
		}
		newSlot = f.pool.AllocSlot()
	}
	t0 := f.Agent.Now()
	res, runErr := f.slotExec.RunCreatingSlot(base, &f.trace, fromSlot, newSlot)
	if runErr != nil {
		return 0, 0, false, false, runErr
	}
	runTime := f.Agent.Now() - t0
	// The creation run covers base end to end (prefix resumed or executed,
	// tail executed), so it is an execution like any other: it can queue,
	// crash and advance the coverage log.
	f.lastExecTime = parentCost + runTime
	if res.FromSnapshot {
		f.snapExecs++
	} else {
		// No cached prefix to chain from: this run re-executed the whole
		// prefix from the root, the redundancy the pool meters.
		f.rootExecs++
		f.prefixRuns++
	}
	f.account(base, res, nil, nil)
	if !res.SnapshotTaken {
		// The position is unusable as placed: charge a full barren round
		// so the aggressive policy retreats off a crashing prefix instead
		// of retrying it forever.
		f.chargeBarren(entry, budget)
		return 0, 0, false, false, nil
	}
	// Estimate what re-executing just the prefix from the root costs: the
	// inherited prefix's cost plus this run's share up to the marker (the
	// run also executed base's own tail, which suffix mutations replace).
	prefixCost = parentCost
	if tail := len(base.Ops) - parentOps; tail > 0 {
		prefixCost += runTime * time.Duration(snapAt-parentOps) / time.Duration(tail)
	}
	if f.pool == nil {
		return newSlot, prefixCost, false, true, nil
	}
	kept, evicted := f.pool.Insert(digest, newSlot, snapAt, f.slotExec.SlotBytes(newSlot), prefixCost)
	for _, ev := range evicted {
		f.slotExec.DropSlot(ev.Slot)
	}
	return newSlot, prefixCost, kept, true, nil
}

// resolvePrefix answers the pool query for base's prefix ending at snapAt,
// going through entry's memoized digest when one exists: a repeat round on
// an unchanged input then resolves its hit without hashing a single opcode
// (LookupDigest). Only when the memoized digest is absent — or its slot was
// evicted, in which case the streaming scan is needed anyway to find the
// longest chainable strict prefix — does the full Resolve pass run, and its
// digest is memoized for the next round. Mutation invalidates the memo: the
// only place an entry's input changes is the lazy trim, which drops it.
func (f *Fuzzer) resolvePrefix(entry *QueueEntry, base *spec.Input, snapAt int) (hit, parent *snappool.Entry, digest snappool.Digest) {
	if d, ok := entry.prefixDigests[snapAt]; ok {
		if e := f.pool.LookupDigest(d); e != nil {
			return e, nil, d
		}
	}
	hit, parent, digest = f.pool.Resolve(base, snapAt)
	if entry.prefixDigests == nil {
		entry.prefixDigests = make(map[int]snappool.Digest)
	}
	entry.prefixDigests[snapAt] = digest
	return hit, parent, digest
}

// fuzzFromRoot spends budget executions mutating entry's whole input from
// the root snapshot. Under the AFL scheduler a fraction of the executions
// first splice the entry with a random queue mate — AFL's splice stage,
// crossing inputs that reached different protocol states — before the
// stacked havoc mutations run.
func (f *Fuzzer) fuzzFromRoot(entry *QueueEntry, budget int) error {
	for i := 0; i < budget; i++ {
		var mut *spec.Input
		if f.sched != SchedRoundRobin && len(f.Queue) > 1 && f.rng.Intn(100) < spliceProbePct {
			mate := f.spliceMate(entry)
			mut = f.Mut.Mutate(f.Mut.Splice(entry.Input, mate.Input))
		} else {
			mut = f.Mut.Mutate(entry.Input)
		}
		if _, err := f.execFromRoot(mut, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// chargeBarren counts n unproductive executions against the aggressive
// policy's per-position counter, retreating the snapshot position one
// packet towards the front once the threshold accumulates (§3.4).
func (f *Fuzzer) chargeBarren(e *QueueEntry, n int) {
	if f.opts.Policy != PolicyAggressive {
		return
	}
	e.aggrBarren += n
	if e.aggrBarren >= AggressiveRetreatThreshold {
		e.aggrBarren = 0
		e.aggrBack++
		if e.aggrBack >= e.Packets {
			e.aggrBack = 0 // wrap to the end again
		}
	}
}

// ImportInput runs an externally supplied input (one synced over from
// another campaign worker, or loaded from a shared corpus) from the root
// snapshot, queueing it if it yields coverage new to this fuzzer. It
// returns whether the input was locally interesting. This is the
// external-entry contract the parallel campaign broker builds on: the
// receiving fuzzer re-executes the input, so imports can never poison the
// queue with coverage claims the local target does not reproduce. A queued
// import keeps in's ops uncopied: no one may write them again (package spec).
func (f *Fuzzer) ImportInput(in *spec.Input) (bool, error) {
	e := &QueueEntry{Input: &spec.Input{Ops: in.Ops, SnapshotAt: -1}}
	if err := f.Spec.Validate(e.Input); err != nil {
		return false, fmt.Errorf("core: import: %w", err)
	}
	before := len(f.Queue)
	if _, err := f.execFromRoot(e.Input, e, nil); err != nil {
		return false, err
	}
	if len(f.Queue) == before {
		return false, nil
	}
	// Imported entries are never re-trimmed locally: trimming is the
	// publishing worker's job, and N receivers repeating it would multiply
	// the campaign's trim spend by the worker count.
	e.Trimmed = true
	return true, nil
}

// placeSnapshot returns the op index for the snapshot marker, or -1 for the
// root snapshot, implementing §3.4's policies. An executor that is not a
// SlotExecutor cannot snapshot: every round of it runs from the root.
func (f *Fuzzer) placeSnapshot(e *QueueEntry) int {
	if f.slotExec == nil {
		return -1
	}
	pkts := packetOpIndices(f.pkts[:0], f.Spec, e.Input)
	f.pkts = pkts
	n := len(pkts)
	if n < MinPacketsForSnapshot {
		return -1
	}
	switch f.opts.Policy {
	case PolicyNone:
		return -1
	case PolicyBalanced:
		if f.rng.Intn(100) < 4 {
			return -1
		}
		var pi int
		if f.rng.Intn(2) == 0 {
			pi = f.rng.Intn(n) // anywhere
		} else {
			pi = n/2 + f.rng.Intn(n-n/2) // second half
		}
		return pkts[pi] + 1 // after sending the chosen packet
	case PolicyAggressive:
		back := e.aggrBack
		if back >= n {
			back = n - 1
		}
		return pkts[n-1-back] + 1
	default:
		return -1
	}
}

// packetOpIndices appends the op indices of in's data-carrying ops to idx.
func packetOpIndices(idx []int, s *spec.Spec, in *spec.Input) []int {
	for i, op := range in.Ops {
		if int(op.Node) < len(s.Nodes) && s.Nodes[op.Node].HasData {
			idx = append(idx, i)
		}
	}
	return idx
}

// execFromRoot runs in from the root snapshot, merging coverage and
// recording findings; seed is what account queues, or nil, and meta the
// metadata seed was restored with, or nil.
func (f *Fuzzer) execFromRoot(in *spec.Input, seed *QueueEntry, meta *EntryMeta) (netemu.Result, error) {
	t0 := f.Agent.Now()
	res, err := f.Agent.RunFromRoot(in, &f.trace)
	if err != nil {
		return res, err
	}
	f.lastExecTime = f.Agent.Now() - t0
	f.rootExecs++
	f.account(in, res, seed, meta)
	return res, nil
}

// execSuffix runs a suffix-only mutation resumed from snapshot slot slot.
// Returns whether the execution found new coverage.
func (f *Fuzzer) execSuffix(slot int, in *spec.Input) (bool, error) {
	t0 := f.Agent.Now()
	res, err := f.slotExec.RunFromSnapshot(slot, in, &f.trace)
	if err != nil {
		return false, err
	}
	// A suffix run only pays for the ops after the marker. For scheduler
	// metadata (fav factor, energy) what matters is what the input would
	// cost from a clean state, so estimate the full cost as the prefix
	// share of the snapshot-creation run plus the suffix.
	f.lastExecTime = f.snapBaseTime + (f.Agent.Now() - t0)
	f.snapExecs++
	return f.account(in, res, nil, nil), nil
}

// account merges coverage, queues interesting inputs, records crashes and
// samples the coverage log. Returns whether the trace contained new bits.
// It queues a clone of in, or seed itself when not nil: then in is the
// seed's unmarked input, which no one writes again. A seed restored with
// meta is queued whether or not its trace has new bits, and takes meta.
func (f *Fuzzer) account(in *spec.Input, res netemu.Result, seed *QueueEntry, meta *EntryMeta) bool {
	f.execs++
	hasNew, _ := f.Virgin.Merge(&f.trace)
	if res.Crashed {
		cr := Crash{
			Kind:    res.Crash.Kind,
			Msg:     res.Crash.Msg,
			FoundAt: f.Elapsed(),
			Execs:   f.execs,
		}
		if !f.crashSeen[cr.Key()] {
			f.crashSeen[cr.Key()] = true
			cr.Input = in.Clone()
			cr.Input.SnapshotAt = -1
			f.Crashes = append(f.Crashes, cr)
		}
	}
	if hasNew || meta != nil {
		e := seed
		if e == nil {
			e = &QueueEntry{Input: in.Clone()}
			e.Input.SnapshotAt = -1
		}
		e.ID = f.nextID
		e.Packets = e.Input.Packets(f.Spec)
		e.FoundAt = f.Elapsed()
		e.Cov = f.trace.Bucketed()
		e.ExecTime = f.lastExecTime
		e.Size = spec.EncodedLen(e.Input)
		if f.curParent != nil {
			e.Depth = f.curParent.Depth + 1
		}
		if meta != nil {
			e.restore(meta)
		}
		if e.Picked == 0 {
			f.pendingNew++
		}
		f.nextID++
		f.Queue = append(f.Queue, e)
		f.execTimeSum += e.ExecTime
		f.updateTopRated(e)
	}
	// Sample the coverage log at most once per virtual minute, plus on
	// every change (cheap, keeps Figure 5 smooth).
	now := f.Elapsed()
	if len(f.covLog) == 0 || f.covLog[len(f.covLog)-1].Edges != f.Virgin.Edges() ||
		now-f.lastSample >= time.Minute {
		f.covLog = append(f.covLog, CoveragePoint{T: now, Edges: f.Virgin.Edges()})
		f.lastSample = now
	}
	return hasNew
}
