package core

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// This file implements the corpus scheduler: which queue entry fuzzes next
// and for how long. Nyx-Net inherits AFL's campaign structure (§3.1 of the
// paper builds on AFL's queue semantics), so the scheduler reproduces the
// parts of it that matter for queue time going to the right inputs:
//
//   - a top-rated "favored" map: for every covered edge, the
//     smallest/fastest entry exercising it, refreshed by a cull pass
//     whenever the map changes (AFL's update_bitmap_score/cull_queue);
//   - frontier-first picking (no entry is fuzzed twice while another
//     waits for its first round) and probabilistic skipping of
//     non-favored entries once the frontier is drained;
//   - an energy function that replaces the fixed per-round execution
//     budget with a per-entry one, scaled by execution speed, coverage
//     breadth, queue depth and fatigue (AFL's calculate_score), clamped
//     at the baseline so boosts offset penalties rather than inflate
//     rounds;
//   - a splice stage crossing the scheduled entry with a random queue
//     mate, and a lazy trim on each entry's first pick;
//   - an optional AFLfast-style power-schedule layer (-power) for
//     long-horizon campaigns: energy reshaped over QueueEntry.Picked and
//     a per-edge pick-frequency map, with the energy ceiling lifted past
//     the baseline once the frontier drains.
//
// SchedRoundRobin turns all of it off and restores the flat rotation the
// seed used, so experiments can ablate the scheduler at equal virtual time.

// Sched selects the queue scheduling strategy.
type Sched int

// Queue scheduling strategies.
const (
	// SchedAFL is the default: favored culling, energy budgets, splice
	// and lazy trim, as described above.
	SchedAFL Sched = iota
	// SchedRoundRobin is the flat baseline: every entry in turn, a fixed
	// SnapshotReuse budget, no splice, no trim.
	SchedRoundRobin
)

// String names the strategy for flags and reports.
func (s Sched) String() string {
	switch s {
	case SchedAFL:
		return "afl"
	case SchedRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("sched(%d)", int(s))
	}
}

// ParseSched maps a flag value to a strategy.
func ParseSched(name string) (Sched, error) {
	switch name {
	case "afl":
		return SchedAFL, nil
	case "rr", "round-robin":
		return SchedRoundRobin, nil
	default:
		return 0, fmt.Errorf("core: unknown scheduler %q (want afl | rr)", name)
	}
}

// Power selects the AFLfast-style power schedule layered on top of the AFL
// scheduler for long-horizon campaigns. The baseline energy function was
// tuned for the short-horizon frontier cascade and clamps every round at
// the baseline budget; once a campaign runs long enough that re-picks
// dominate, that clamp wastes the signal in QueueEntry.Picked and the
// per-edge pick-frequency map. Power schedules reshape the budget over
// exactly that signal: entries exercising rarely-picked edges earn budget,
// over-fuzzed entries decay, and the energy ceiling lifts past the baseline
// once the frontier drains (see energyCeil).
//
// The schedules are AFLfast's family adapted to snapshot fuzzing: the
// per-edge pick-frequency map stands in for AFLfast's path-frequency
// counter, and the exponent decays over-fuzzed entries instead of boosting
// them — on stateful targets the discovery cascade rewards spreading
// re-pick budget toward rare states, not piling it onto hot paths.
type Power int

// Power schedules. PowerOff keeps the PR-2 baseline energy (clamped at the
// baseline budget); the rest reshape it over Picked and edge rarity.
const (
	// PowerOff: baseline AFL energy, ceiling clamped at the baseline.
	PowerOff Power = iota
	// PowerFast: exponential decay in Picked plus edge-rarity boost.
	PowerFast
	// PowerCoe: cut-off exponential — entries whose rarest edge is still
	// picked more often than the mean are cut to the minimum budget;
	// the rest decay exponentially like fast.
	PowerCoe
	// PowerExplore: edge-rarity boost only, flat in Picked.
	PowerExplore
	// PowerLin: linear decay in Picked plus edge-rarity boost.
	PowerLin
	// PowerQuad: quadratic decay in Picked plus edge-rarity boost.
	PowerQuad
	// PowerAdaptive switches schedules mid-campaign: it starts as explore
	// (flat rarity-boosted budgets while the frontier cascade is alive)
	// and flips to coe once the queue frontier drains — the cut-off
	// schedule is where the long-horizon gains live, but it starves a
	// young campaign whose rarity signal is still forming. The flip is
	// one-way and persists across checkpoint/resume (sched.bin).
	PowerAdaptive
)

// String names the power schedule for flags, manifests and reports.
func (p Power) String() string {
	switch p {
	case PowerOff:
		return "off"
	case PowerFast:
		return "fast"
	case PowerCoe:
		return "coe"
	case PowerExplore:
		return "explore"
	case PowerLin:
		return "lin"
	case PowerQuad:
		return "quad"
	case PowerAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("power(%d)", int(p))
	}
}

// ParsePower maps a flag value to a power schedule.
func ParsePower(name string) (Power, error) {
	switch name {
	case "", "off":
		return PowerOff, nil
	case "fast":
		return PowerFast, nil
	case "coe":
		return PowerCoe, nil
	case "explore":
		return PowerExplore, nil
	case "lin":
		return PowerLin, nil
	case "quad":
		return PowerQuad, nil
	case "adaptive":
		return PowerAdaptive, nil
	default:
		return 0, fmt.Errorf("core: unknown power schedule %q (want off | fast | coe | explore | lin | quad | adaptive)", name)
	}
}

// skipOld is the probability (percent) of skipping an already-fuzzed
// non-favored entry once the queue frontier is exhausted — the role of
// AFL's SKIP_NFAV_OLD_PROB. Entries that have never been picked are never
// skipped, and take strict priority over every re-pick: on stateful
// targets each fresh queue entry is a distinct protocol state whose suffix
// deserves one snapshot round before any entry gets a second (AFL's
// pending-first preference, made strict). Probabilistic skipping therefore
// only throttles the saturated regime, steering re-picks to the favored
// set while still leaking occasional rounds to the rest of the queue.
const skipOld = 80

// spliceProbePct is the chance (percent) a root-path execution splices the
// scheduled entry with a queue mate before the stacked havoc mutations.
const spliceProbePct = 25

// trimBudgetPct caps the campaign-wide share of virtual time the lazy trim
// may consume. Trim candidates run from the root snapshot — exactly the
// expensive path incremental snapshots exist to avoid — so the budget is
// denominated in time, not executions: one trim candidate costs tens of
// suffix executions' worth of virtual time, and an exec-count budget would
// silently let trimming eat most of the campaign (AFL bounds trimming the
// same way via its stage size limits).
const trimBudgetPct = 5

// Energy clamps: the per-entry budget stays within [min,max]/100 of the
// configured SnapshotReuse. Unlike AFL (which boosts up to
// HAVOC_MAX_MULT), the default ceiling is the baseline itself: boost
// factors only offset penalties, never inflate rounds. On stateful targets
// the discovery cascade is driven by how many distinct frontier entries
// get a first round per unit of virtual time, and oversized rounds
// measurably slow that cascade (see the scheduling ablation) — so energy
// reallocates budget away from slow, narrow and fatigued entries instead
// of piling extra executions onto good ones. Power schedules lift the
// ceiling once the frontier drains (energyCeil): in the re-pick regime
// there is no cascade left to slow down, and the clamp is what kept the
// PR-2 scheduler from expressing long-horizon boosts.
const (
	energyMinScore = 25
	energyMaxScore = 100
)

// Power-schedule shaping constants.
const (
	// powerRarityBoostMax caps the edge-rarity boost factor: an entry
	// whose rarest covered edge is far below the mean pick frequency earns
	// at most this multiple of its base score.
	powerRarityBoostMax = 16
	// powerDecayCap caps the exponential decay of fast/coe so a
	// heavily-picked entry bottoms out at score>>powerDecayCap instead of
	// underflowing straight to the floor on the first few picks.
	powerDecayCap = 6
	// powerHorizonMaxBoost caps how far past the baseline the lifted
	// energy ceiling may grow once the frontier drains (energyCeil).
	powerHorizonMaxBoost = 8
	// adaptiveFlipPicks is how many consecutive frontier-empty picks the
	// adaptive schedule waits before flipping explore -> coe. A single
	// empty observation is noise — the frontier refills on every
	// discovery — but a sustained drought means the campaign has entered
	// the re-pick regime coe is built for.
	adaptiveFlipPicks = 16
)

// updateTopRated competes e for every edge its recorded trace covers.
// The winner per edge minimizes exec-time x size (AFL's fav_factor), i.e.
// the cheapest way the campaign knows to reach that edge.
func (f *Fuzzer) updateTopRated(e *QueueEntry) {
	if f.sched == SchedRoundRobin {
		return
	}
	fav := favFactor(e)
	for _, h := range e.Cov {
		if h.Bucket == 0 {
			continue
		}
		// Edges never leave the top-rated table, so it stays sorted by
		// inserting each new one in place: the cull walks it in ascending
		// edge order without collecting, sorting or looking anything up.
		i, ok := slices.BinarySearch(f.topEdges, h.Index)
		switch {
		case !ok:
			f.topEdges = slices.Insert(f.topEdges, i, h.Index)
			f.topEntries = slices.Insert(f.topEntries, i, e)
		case favFactor(f.topEntries[i]) <= fav:
			continue
		default:
			f.topEntries[i] = e
		}
		f.scoreChanged = true
	}
}

// favFactor is the quality score competed in the top-rated table: lower is
// better. Entries with unmeasured exec time (restored metadata) fall back
// to size alone.
func favFactor(e *QueueEntry) int64 {
	t := int64(e.ExecTime)
	if t <= 0 {
		t = 1
	}
	return t * int64(e.Size+1)
}

// FavFactor exposes the top-rated quality score (lower is better) to the
// campaign broker, which competes it globally across workers — the same
// exec-time x size metric the local favored cull uses, so local and global
// competitions rank entries identically.
func (e *QueueEntry) FavFactor() int64 { return favFactor(e) }

// cullQueue re-marks the favored subset after the top-rated table changed:
// a greedy cover walk (in ascending edge order, so the pass is
// deterministic) keeps the best entry for every yet-uncovered edge, exactly
// AFL's cull_queue. It runs before every pick that follows a change, so it
// allocates nothing: the walk order is topEdges and the covered set a
// bitset owned by the fuzzer (Cov comes from a trace, so every index is
// below coverage.MapSize).
func (f *Fuzzer) cullQueue() {
	if f.sched == SchedRoundRobin || !f.scoreChanged {
		return
	}
	f.scoreChanged = false
	for _, e := range f.Queue {
		e.Favored = false
	}
	covered := &f.cullCovered
	clear(covered[:])
	for i, idx := range f.topEdges {
		if covered[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		e := f.topEntries[i]
		e.Favored = true
		for _, h := range e.Cov {
			covered[h.Index>>6] |= 1 << (h.Index & 63)
		}
	}
}

// pickEntry selects the next queue entry. Round-robin rotates flatly. The
// AFL scheduler walks the same rotation but (1) while never-picked entries
// are pending, re-picks are skipped outright — the frontier drains first —
// and (2) once the frontier is empty, non-favored re-picks are skipped
// probabilistically so queue time concentrates on the favored set. A full
// lap without a pick settles on the current entry, so the walk always
// terminates.
func (f *Fuzzer) pickEntry() *QueueEntry {
	f.cullQueue()
	// Adaptive schedule phase detection: count consecutive picks that find
	// the frontier empty; a sustained drought flips explore -> coe for the
	// rest of the campaign (sticky, checkpointed).
	if f.power == PowerAdaptive && !f.powerFlip {
		if f.pendingNew == 0 && len(f.Queue) > 0 {
			f.drainStreak++
			if f.drainStreak >= adaptiveFlipPicks {
				f.powerFlip = true
			}
		} else {
			f.drainStreak = 0
		}
	}
	var e *QueueEntry
	for tries := len(f.Queue); ; tries-- {
		e = f.Queue[f.queueCur%len(f.Queue)]
		f.queueCur++
		if tries <= 0 || f.sched == SchedRoundRobin || e.Picked == 0 {
			break
		}
		if f.pendingNew > 0 {
			continue // an unfuzzed entry is waiting somewhere in the lap
		}
		// Globally dominated entries lost the broker's favored competition
		// to a cheaper entry on another worker: treat them as non-favored
		// so local queue time follows the campaign-wide ranking.
		if (e.Favored && !e.GloballyDominated) || f.rng.Intn(100) >= skipOld {
			break
		}
	}
	if e.Picked == 0 && f.pendingNew > 0 {
		f.pendingNew--
	}
	e.Picked++
	f.totalPicked++
	// Under a power schedule, charge this pick against every edge the
	// entry covers: the per-edge frequency map is the rarity signal the
	// schedules reshape energy with (AFLfast's path-frequency counter,
	// restated per edge because snapshot entries carry suffix traces, not
	// whole-path checksums).
	if f.power != PowerOff && f.sched != SchedRoundRobin {
		for _, h := range e.Cov {
			if h.Bucket == 0 {
				continue
			}
			f.edgePicks[h.Index]++
			f.edgePickSum++
		}
	}
	return e
}

// energy returns the execution budget one scheduling round spends on e —
// AFL's calculate_score mapped onto SnapshotReuse. Slow, narrow and
// fatigued entries get shortened rounds; with power off, speed, breadth
// and depth boosts offset those penalties but never push the budget past
// the baseline (see the energyMaxScore comment for why). Under a power
// schedule the fatigue factor is replaced by the schedule's decay over
// Picked and edge rarity, and the ceiling lifts once the frontier drains
// (energyCeil).
func (f *Fuzzer) energy(e *QueueEntry) int {
	if f.sched == SchedRoundRobin {
		return f.opts.SnapshotReuse
	}
	score := 100

	// Execution speed against the queue average: cheap entries buy more
	// executions per unit of virtual time. The queue-wide exec-time sum
	// is maintained incrementally (on append, import and trim) — summing
	// it here made every pick O(queue). (AFL also scales by bitmap
	// size; queue entries here carry the trace of the execution that
	// queued them — a suffix-only trace for snapshot discoveries, a full
	// trace for imports — so trace sizes are not comparable across
	// entries and no breadth factor is applied.)
	n := time.Duration(len(f.Queue))
	if avg := f.execTimeSum / n; avg > 0 && e.ExecTime > 0 {
		switch {
		case e.ExecTime*4 <= avg:
			score *= 3
		case e.ExecTime*2 <= avg:
			score *= 2
		case e.ExecTime >= avg*4:
			score /= 4
		case e.ExecTime >= avg*2:
			score /= 2
		}
	}

	// Depth: entries many derivations away from a seed reach state that
	// random walks from the seeds rarely re-reach.
	switch {
	case e.Depth >= 14:
		score *= 3
	case e.Depth >= 8:
		score *= 2
	case e.Depth >= 4:
		score = score * 3 / 2
	}

	if f.power == PowerOff {
		// Fatigue: entries scheduled many times already have had their
		// chance.
		switch {
		case e.Picked >= 16:
			score /= 4
		case e.Picked >= 4:
			score /= 2
		}
	} else {
		score = f.powerScore(score, e)
	}

	if score < energyMinScore {
		score = energyMinScore
	}
	if max := f.energyCeil(); score > max {
		score = max
	}
	budget := f.opts.SnapshotReuse * score / 100
	if budget < 1 {
		budget = 1
	}
	return budget
}

// powerScore applies the selected power schedule to the base score: an
// edge-rarity boost (entries reaching rarely-picked edges earn budget —
// fast/explore/lin/quad) and a schedule-specific decay over Picked
// (over-fuzzed entries give budget back). coe takes no boost: it is a
// pure cut-off exponential — over-exercised entries drop to the floor,
// the rest decay like fast from the unboosted base. The baseline fatigue
// factor is disabled under power schedules so each schedule fully owns
// the pick-count response.
func (f *Fuzzer) powerScore(score int, e *QueueEntry) int {
	rare, mean := f.edgeRarity(e)
	boost := 1
	if rare < mean {
		boost = int(mean / (rare + 1))
		if boost < 1 {
			boost = 1
		}
		if boost > powerRarityBoostMax {
			boost = powerRarityBoostMax
		}
	}
	decay := e.Picked
	if decay > powerDecayCap {
		decay = powerDecayCap
	}
	switch f.effectivePower() {
	case PowerExplore:
		score *= boost
	case PowerFast:
		score = score * boost >> decay
	case PowerCoe:
		if rare > mean {
			// Cut-off: even this entry's rarest edge is over-exercised
			// relative to the campaign mean (edgeRarity yields rare ==
			// mean == 0 while no pick data exists, so the cut-off never
			// fires on an empty signal); spend the minimum here.
			return energyMinScore
		}
		score >>= decay
	case PowerLin:
		score = score * boost / (1 + e.Picked)
	case PowerQuad:
		score = score * boost / (1 + e.Picked*e.Picked)
	}
	return score
}

// effectivePower resolves the schedule actually shaping energy this pick:
// the adaptive schedule reads as explore before its flip and coe after.
func (f *Fuzzer) effectivePower() Power {
	if f.power != PowerAdaptive {
		return f.power
	}
	if f.powerFlip {
		return PowerCoe
	}
	return PowerExplore
}

// SetPeerEdgePicks installs the aggregated per-edge pick frequencies of
// the other campaign workers (broker feedback, refreshed every sync). The
// rarity signal then ranks edges by campaign-wide attention instead of
// local attention, so N workers stop independently re-boosting the same
// edges each of them happens to have picked rarely.
func (f *Fuzzer) SetPeerEdgePicks(picks map[uint32]uint64, sum uint64) {
	f.peerPicks = picks
	f.peerPickSum = sum
}

// PeerPickSum returns the total peer picks last installed by
// SetPeerEdgePicks (campaign telemetry / tests).
func (f *Fuzzer) PeerPickSum() uint64 { return f.peerPickSum }

// edgeRarity reports the pick frequency of e's rarest covered edge and the
// mean pick frequency across all tracked edges — the rarity signal the
// power schedules shape energy with. Both sides combine local picks with
// the broker's peer feedback when present, so the frequencies approximate
// the campaign-wide totals between syncs (local picks since the last sync
// are only known locally; the mean divides by the larger tracked-edge set
// as the campaign-wide denominator).
func (f *Fuzzer) edgeRarity(e *QueueEntry) (rare, mean uint64) {
	tracked := len(f.edgePicks)
	if len(f.peerPicks) > tracked {
		tracked = len(f.peerPicks)
	}
	if tracked == 0 {
		return 0, 0
	}
	first := true
	for _, h := range e.Cov {
		if h.Bucket == 0 {
			continue
		}
		n := f.edgePicks[h.Index] + f.peerPicks[h.Index]
		if first || n < rare {
			rare = n
			first = false
		}
	}
	return rare, (f.edgePickSum + f.peerPickSum) / uint64(tracked)
}

// energyCeil is the score ceiling the energy clamp enforces. With power
// off it is the baseline (boosts only offset penalties — the PR-2
// short-horizon tuning). Power schedules keep that ceiling while the
// frontier still holds never-picked entries (first rounds for fresh states
// stay the priority), then lift it with the campaign horizon: the deeper
// the campaign is into the re-pick regime — measured by the mean pick
// count across the queue — the more an outsized boost on a rare entry is
// worth, up to powerHorizonMaxBoost x the baseline.
func (f *Fuzzer) energyCeil() int {
	if f.power == PowerOff || f.pendingNew > 0 || len(f.Queue) == 0 {
		return energyMaxScore
	}
	h := f.totalPicked / uint64(len(f.Queue))
	factor := 1
	for h > 0 && factor < powerHorizonMaxBoost {
		h >>= 1
		factor++
	}
	return energyMaxScore * factor
}

// spliceMate picks a random queue entry other than e. Callers guarantee
// the queue holds at least two entries.
func (f *Fuzzer) spliceMate(e *QueueEntry) *QueueEntry {
	for {
		if m := f.Queue[f.rng.Intn(len(f.Queue))]; m != e {
			return m
		}
	}
}

// trimEntry lazily trims e on its first favored pick (AFL trims queue
// entries once before fuzzing them; here only favored entries qualify and
// Step enforces the trimBudgetPct cap): the shorter input replaces the
// original when trimming succeeded, and the entry's derived metadata
// follows it — including ExecTime, re-estimated from the trim's final
// validating execution. Keeping the pre-trim estimate mis-ranked trimmed
// entries everywhere the scheduler reads time: favFactor scored them as if
// they still cost the full-length run, and energy kept charging the old
// cost against the queue average.
func (f *Fuzzer) trimEntry(e *QueueEntry) error {
	e.Trimmed = true
	// Only the campaign broker reads the pre-trim key (DrainRetrimmed); a
	// solo run never hashes an input.
	var oldKey string
	if f.opts.TrackRetrims {
		oldKey = e.Key()
	}
	t0 := f.Agent.Now()
	trimmed, execTime, err := f.trimMeasured(e.Input)
	f.trimTime += f.Agent.Now() - t0
	if err != nil {
		return err
	}
	if len(trimmed.Ops) < len(e.Input.Ops) {
		e.Input, e.enc = trimmed, nil
		e.Size = spec.EncodedLen(trimmed)
		e.Packets = trimmed.Packets(f.Spec)
		if e.aggrBack >= e.Packets {
			e.aggrBack = 0
		}
		// The input changed, so every memoized prefix digest describes
		// bytes that no longer exist at those positions.
		e.prefixDigests = nil
	}
	// Even when no op could be dropped, the trim measured a real
	// full-length root execution — a better estimate than the suffix-run
	// extrapolation most entries are queued with.
	f.execTimeSum += execTime - e.ExecTime
	e.ExecTime = execTime
	// The smaller size / corrected time changes e's fav factor;
	// re-compete it for the edges it covers so culling can promote it,
	// and remember it for the campaign broker, whose global claims still
	// carry the pre-trim content key and cost (DrainRetrimmed).
	f.updateTopRated(e)
	if f.opts.TrackRetrims {
		f.retrimmed = append(f.retrimmed, Retrim{Entry: e, OldKey: oldKey})
	}
	return nil
}

// Retrim records one lazy trim for the campaign broker: the entry (now
// carrying the trimmed input and re-measured cost) and the content key it
// was published under, which is what the broker's global claims are filed
// by.
type Retrim struct {
	Entry  *QueueEntry
	OldKey string
}

// DrainRetrimmed returns the trims since the last call and resets the
// list. The campaign broker transfers each entry's global claims from the
// pre-trim key to the trimmed form's key with the re-measured cost: a trim
// changes the entry's content and cost, so the claim recorded when it was
// published no longer describes it.
func (f *Fuzzer) DrainRetrimmed() []Retrim {
	r := f.retrimmed
	f.retrimmed = nil
	return r
}

// ---- Scheduler and power-schedule state persistence (checkpoint/resume) ----

// EntryMeta is the durable scheduler state of one queue entry, keyed by a
// content hash of the entry's serialized input (the input bytes themselves
// live in the corpus files EncodeQueue writes next to the metadata — storing
// them again here would double the checkpoint). A resumed campaign
// re-executes its saved queue (so coverage is rebuilt locally, never
// trusted from disk) and then re-attaches this metadata, so scheduling
// picks up where it left off instead of re-trimming and re-boosting every
// entry.
type EntryMeta struct {
	Key        string
	Depth      int
	ExecTime   time.Duration
	Picked     int
	Trimmed    bool
	AggrBack   int
	AggrBarren int
	// Dominated records that the campaign broker's global favored
	// competition demoted this entry.
	Dominated bool
}

// InputKey returns the content key EntryMeta uses to match metadata back
// to an input: the SHA-256 of the serialized bytecode, as a 32-byte string
// (raw digest bytes — a map key, not printable). QueueEntry.Key memoizes it.
func InputKey(in *spec.Input) string {
	var buf [1024]byte // most inputs encode into it, on the stack
	sum := sha256.Sum256(spec.AppendSerialize(buf[:0], in))
	return string(sum[:])
}

// SchedMeta snapshots every queue entry's scheduler metadata in queue
// order. Until the first Step imports the seeds, the restored metadata that
// describes them follows, as loaded (see EncodeQueue).
func (f *Fuzzer) SchedMeta() []EntryMeta {
	out := make([]EntryMeta, 0, len(f.Queue))
	for _, e := range f.Queue {
		out = append(out, EntryMeta{
			Key:        e.Key(),
			Depth:      e.Depth,
			ExecTime:   e.ExecTime,
			Picked:     e.Picked,
			Trimmed:    e.Trimmed,
			AggrBack:   e.aggrBack,
			AggrBarren: e.aggrBarren,
			Dominated:  e.GloballyDominated,
		})
	}
	if !f.seedsDone {
		out = append(out, f.opts.SeedMeta...)
	}
	return out
}

// applySeedMeta re-attaches restored metadata to a freshly queued entry,
// matching by input content key. Returns whether metadata was found.
func (f *Fuzzer) applySeedMeta(e *QueueEntry) bool {
	if len(f.seedMeta) == 0 {
		return false
	}
	m, ok := f.seedMeta[e.Key()]
	if !ok {
		return false
	}
	e.Depth = m.Depth
	if m.ExecTime > 0 {
		e.ExecTime = m.ExecTime
	}
	e.Picked = m.Picked
	e.Trimmed = m.Trimmed
	e.aggrBack = m.AggrBack
	e.aggrBarren = m.AggrBarren
	e.GloballyDominated = m.Dominated
	return true
}

// PowerMeta is the durable power-schedule state of one fuzzer: the
// per-edge pick-frequency map and the total pick count the horizon-aware
// energy ceiling reads, plus the adaptive schedule's phase. Without it a
// resumed long campaign would restart the rarity signal from zero, re-boost
// edges it had already worn out, and (under -power adaptive) drop back into
// the explore phase it had already outgrown.
type PowerMeta struct {
	TotalPicked uint64
	EdgePicks   map[uint32]uint64
	// Flipped records the adaptive schedule's one-way explore -> coe
	// transition; DrainStreak the progress towards it.
	Flipped     bool
	DrainStreak int
}

// PowerState snapshots the fuzzer's power-schedule state.
func (f *Fuzzer) PowerState() *PowerMeta {
	return &PowerMeta{
		TotalPicked: f.totalPicked,
		EdgePicks:   maps.Clone(f.edgePicks),
		Flipped:     f.powerFlip,
		DrainStreak: f.drainStreak,
	}
}

// SchedStateFile is the one file per worker a campaign checkpoint keeps this
// state in, next to the worker's queue/ directory.
const SchedStateFile = "sched.bin"

// Bytes an entry and an edge take in the stream, at least: what bounds the
// two counts against the bytes left before either sizes an allocation.
const (
	entryMetaMinLen = 4 + 8 + 8 + 8 + 1 + 8 + 8 + 1
	edgePickLen     = 4 + 8
)

// EncodeSchedState appends the sched.bin form of one worker's scheduler
// metadata and power state to w, in the bounded canonical codec the guest
// state image uses:
//
//	u32 n | n × (string key | i64 depth | i64 exec_time_ns | i64 picked |
//	             bool trimmed | i64 aggr_back | i64 aggr_barren | bool dominated)
//	u64 total_picked | bool flipped | i64 drain_streak
//	u32 m | m × (u32 edge | u64 picks), edges strictly ascending
//
// Entries keep queue order, which is the order of the queue files beside
// them. DecodeSchedState(EncodeSchedState(x)) = x, and a stream that decodes
// is the stream its contents encode to.
func EncodeSchedState(w *guest.StateWriter, meta []EntryMeta, power *PowerMeta) {
	w.U32(uint32(len(meta)))
	for i := range meta {
		m := &meta[i]
		w.String(m.Key)
		w.Int(m.Depth)
		w.I64(int64(m.ExecTime))
		w.Int(m.Picked)
		w.Bool(m.Trimmed)
		w.Int(m.AggrBack)
		w.Int(m.AggrBarren)
		w.Bool(m.Dominated)
	}
	w.U64(power.TotalPicked)
	w.Bool(power.Flipped)
	w.Int(power.DrainStreak)
	w.U32(uint32(len(power.EdgePicks)))
	for _, idx := range slices.Sorted(maps.Keys(power.EdgePicks)) {
		w.U32(idx)
		w.U64(power.EdgePicks[idx])
	}
}

// DecodeSchedState reads what EncodeSchedState wrote. The bytes are outside
// input: each count is checked against the bytes left before it sizes
// anything; negative entry fields, edges that do not ascend and bytes after
// the last edge are errors. The result shares nothing with raw.
func DecodeSchedState(raw []byte) ([]EntryMeta, *PowerMeta, error) {
	r := guest.NewStateReader(raw)
	meta := make([]EntryMeta, r.Count(entryMetaMinLen))
	for i := range meta {
		m := &meta[i]
		*m = EntryMeta{
			Key:        r.String(),
			Depth:      r.Int(),
			ExecTime:   time.Duration(r.I64()),
			Picked:     r.Int(),
			Trimmed:    r.Bool(),
			AggrBack:   r.Int(),
			AggrBarren: r.Int(),
			Dominated:  r.Bool(),
		}
		// What indexes and divides in the scheduler is never negative.
		if m.Depth < 0 || m.ExecTime < 0 || m.Picked < 0 || m.AggrBack < 0 || m.AggrBarren < 0 {
			r.Fail("entry %d has a negative field", i)
		}
	}
	power := &PowerMeta{TotalPicked: r.U64(), Flipped: r.Bool(), DrainStreak: r.Int()}
	n := r.Count(edgePickLen)
	power.EdgePicks = make(map[uint32]uint64, n)
	for i, prev := 0, uint32(0); i < n && r.Err() == nil; i++ {
		idx, picks := r.U32(), r.U64()
		if i > 0 && idx <= prev {
			r.Fail("edge %d after %d", idx, prev)
		}
		power.EdgePicks[idx], prev = picks, idx
	}
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("core: decode sched state: %w", err)
	}
	return meta, power, nil
}
