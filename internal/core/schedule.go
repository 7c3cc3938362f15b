package core

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/spec"
)

// This file implements the corpus scheduler: which queue entry fuzzes next
// and for how long. Nyx-Net inherits AFL's campaign structure (§3.1 of the
// paper builds on AFL's queue semantics), so the scheduler reproduces the
// parts of it that matter for queue time going to the right inputs:
//
//   - a top-rated "favored" map: for every covered edge, the
//     smallest/fastest entry exercising it, and the favored set AFL's
//     greedy cover walk picks from it (update_bitmap_score/cull_queue),
//     brought up to date at each pick by re-deciding only the edges whose
//     winner or cover changed since the last one;
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
//   - an optional AFLfast-style power schedule (-power coe) for
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

// MarshalText names the strategy the way its flag takes it.
func (s Sched) MarshalText() ([]byte, error) {
	switch s {
	case SchedAFL:
		return []byte("afl"), nil
	case SchedRoundRobin:
		return []byte("rr"), nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %d", int(s))
	}
}

// UnmarshalText is ParseSched.
func (s *Sched) UnmarshalText(text []byte) (err error) {
	*s, err = ParseSched(string(text))
	return err
}

// Power selects the AFLfast-style power schedule layered on top of the AFL
// scheduler for long-horizon campaigns. The baseline energy function was
// tuned for the short-horizon frontier cascade and clamps every round at
// the baseline budget; once a campaign runs long enough that re-picks
// dominate, that clamp wastes the signal in QueueEntry.Picked and the
// per-edge pick-frequency map. The power schedule reshapes the budget over
// exactly that signal: over-exercised entries are cut to the floor, the
// rest decay with their pick count, and the energy ceiling lifts past the
// baseline once the frontier drains (see energyCeil).
//
// The one schedule is AFLfast's coe adapted to snapshot fuzzing: the
// per-edge pick-frequency map stands in for AFLfast's path-frequency
// counter. README's power-schedule ledger holds the seed spread that
// retired the rest of the family.
type Power int

// Power schedules.
const (
	// PowerOff: baseline AFL energy, ceiling clamped at the baseline.
	PowerOff Power = iota
	// PowerCoe: cut-off exponential — entries whose rarest edge is still
	// picked more often than the mean are cut to the minimum budget; the
	// rest decay exponentially in Picked.
	PowerCoe
)

// String names the power schedule for flags, manifests and reports.
func (p Power) String() string {
	switch p {
	case PowerOff:
		return "off"
	case PowerCoe:
		return "coe"
	default:
		return fmt.Sprintf("power(%d)", int(p))
	}
}

// ParsePower maps a flag value to a power schedule.
func ParsePower(name string) (Power, error) {
	switch name {
	case "", "off":
		return PowerOff, nil
	case "coe":
		return PowerCoe, nil
	default:
		return 0, fmt.Errorf("core: unknown power schedule %q (want off | coe)", name)
	}
}

// MarshalText is String, the name ParsePower reads, for a known schedule.
func (p Power) MarshalText() ([]byte, error) {
	if p != PowerOff && p != PowerCoe {
		return nil, fmt.Errorf("core: unknown power schedule %d", int(p))
	}
	return []byte(p.String()), nil
}

// UnmarshalText is ParsePower.
func (p *Power) UnmarshalText(text []byte) (err error) {
	*p, err = ParsePower(string(text))
	return err
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
// of piling extra executions onto good ones. The power schedule lifts the
// ceiling once the frontier drains (energyCeil): in the re-pick regime
// there is no cascade left to slow down, and the clamp is what kept the
// PR-2 scheduler from expressing long-horizon boosts.
const (
	energyMinScore = 25
	energyMaxScore = 100
)

// Power-schedule shaping constants.
const (
	// powerDecayCap caps coe's exponential decay so a heavily-picked entry
	// bottoms out at score>>powerDecayCap instead of underflowing straight
	// to the floor on the first few picks.
	powerDecayCap = 6
	// powerHorizonMaxBoost caps how far past the baseline the lifted
	// energy ceiling may grow once the frontier drains (energyCeil).
	powerHorizonMaxBoost = 8
)

// topEdge is one row of the top-rated table: an edge some queued entry
// covers, the cheapest entry covering it, and what the cull keeps of its
// cover walk there (see cullQueue).
type topEdge struct {
	edge uint32
	// cover counts the cover walk's choices at lower edges whose Cov holds
	// this one (twice for a Cov that lists it twice, as a trace does past
	// 256 hits), so it is 0 exactly when none does. Each lower edge makes at
	// most one choice, which keeps it far inside 16 bits.
	cover uint16
	// top is the winner (AFL's top_rated entry for the edge) and fav is one
	// more than the entry the walk chose here, or 0, both by index in Queue,
	// which is an entry's ID. Indices keep the table free of pointers, so
	// inserting a row is a plain memmove the garbage collector neither
	// fences nor scans.
	top, fav uint32
}

// cullWords is the length of the cull's dirty-edge bitset.
const cullWords = coverage.MapSize / 64

// updateTopRated competes e for every edge its recorded trace covers.
// The winner per edge minimizes exec-time x size (AFL's fav_factor), i.e.
// the cheapest way the campaign knows to reach that edge. A new edge or a
// new winner is left for the next cull to re-decide. A new edge starts
// with no cover, which is exact because every entry that could cover it
// would have put it in the table when it was queued.
func (f *Fuzzer) updateTopRated(e *QueueEntry) {
	if f.sched == SchedRoundRobin {
		return
	}
	fav := favFactor(e)
	for _, h := range e.Cov {
		if h.Bucket == 0 {
			continue
		}
		// Edges never leave the table, so it stays sorted by inserting each
		// new one in place.
		i, ok := f.findTop(h.Index)
		switch {
		case !ok:
			f.topRated = slices.Insert(f.topRated, i, topEdge{edge: h.Index, top: uint32(e.ID)})
		case favFactor(f.Queue[f.topRated[i].top]) <= fav:
			continue
		default:
			f.topRated[i].top = uint32(e.ID)
		}
		f.markDirty(h.Index)
	}
}

// findTop returns the row of edge in the top-rated table, or where it would
// go and false.
func (f *Fuzzer) findTop(edge uint32) (int, bool) {
	t := f.topRated
	lo, hi := 0, len(t)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t[m].edge < edge {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].edge == edge
}

// markDirty leaves edge for the next cull to re-decide.
func (f *Fuzzer) markDirty(edge uint32) {
	w := int(edge >> 6)
	f.cullDirty[w] |= 1 << (edge & 63)
	f.dirtyLo, f.dirtyHi = min(f.dirtyLo, w), max(f.dirtyHi, w+1)
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

// cullQueue brings the favored subset up to date with the top-rated table.
// The subset is what AFL's cull_queue picks: a greedy cover walk over the
// edges in ascending order, where an edge no already-favored entry covers
// makes its winner favored. Rather than walk every edge before every pick,
// the table keeps the walk's result (topEdge.cover and fav, and each
// entry's favAt), and the cull re-decides only the edges marked dirty since
// the last pick, in ascending order: an edge wants its winner when its
// cover is 0 and nothing otherwise, and a choice that changes moves the
// cover of the chosen entry's higher edges, marking those that cross 0.
// Everything that decides an edge lies below it, so one ascending sweep
// leaves exactly the walk's result. It allocates nothing.
func (f *Fuzzer) cullQueue() {
	for w := f.dirtyLo; w < f.dirtyHi; w++ {
		// A repair only marks edges above the one it repairs, so re-reading
		// the word and dirtyHi keeps the sweep ascending.
		for f.cullDirty[w] != 0 {
			b := bits.TrailingZeros64(f.cullDirty[w])
			f.cullDirty[w] &^= 1 << b
			f.recull(uint32(w<<6 | b))
		}
	}
	f.dirtyLo, f.dirtyHi = cullWords, 0
}

// recull re-decides the cover walk's choice at one edge.
func (f *Fuzzer) recull(edge uint32) {
	i, _ := f.findTop(edge)
	r := &f.topRated[i]
	var want uint32 // in the form of fav
	if r.cover == 0 {
		want = r.top + 1
	}
	if r.fav == want {
		return
	}
	if r.fav != 0 {
		f.unchoose(f.Queue[r.fav-1])
	}
	if want != 0 {
		e := f.Queue[want-1]
		// An entry already chosen holds its choice at a higher edge: one at
		// a lower edge would cover this one.
		if e.favAt != 0 {
			f.unchoose(e)
		}
		r.fav, e.favAt, e.Favored = want, edge+1, true
		f.moveCover(e, edge, +1)
	}
}

// unchoose withdraws e's choice.
func (f *Fuzzer) unchoose(e *QueueEntry) {
	at := e.favAt - 1
	i, _ := f.findTop(at)
	f.topRated[i].fav, e.favAt, e.Favored = 0, 0, false
	f.moveCover(e, at, -1)
}

// moveCover adds d to the cover of every edge of e's Cov above at, marking
// the edges whose cover crosses 0.
func (f *Fuzzer) moveCover(e *QueueEntry, at uint32, d int) {
	for _, h := range e.Cov {
		if h.Bucket == 0 || h.Index <= at {
			continue
		}
		i, _ := f.findTop(h.Index)
		r := &f.topRated[i]
		r.cover = uint16(int(r.cover) + d)
		if r.cover == 0 || r.cover == 1 && d > 0 {
			f.markDirty(h.Index)
		}
	}
}

// pickHook, when set, runs at every pick right after the cull (test
// instrumentation: the cull's differential tests hold the favored set to a
// full cover walk there).
var pickHook func(*Fuzzer)

// pickEntry selects the next queue entry. Round-robin rotates flatly. The
// AFL scheduler walks the same rotation but (1) while never-picked entries
// are pending, re-picks are skipped outright — the frontier drains first —
// and (2) once the frontier is empty, non-favored re-picks are skipped
// probabilistically so queue time concentrates on the favored set. A full
// lap without a pick settles on the current entry, so the walk always
// terminates.
func (f *Fuzzer) pickEntry() *QueueEntry {
	f.cullQueue()
	if pickHook != nil {
		pickHook(f)
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
	// Under the power schedule, charge this pick against every edge the
	// entry covers: the per-edge frequency map is the rarity signal coe
	// cuts energy with (AFLfast's path-frequency counter,
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
// the baseline (see the energyMaxScore comment for why). Under the power
// schedule the fatigue factor is replaced by coe's cut-off and decay over
// Picked, and the ceiling lifts once the frontier drains (energyCeil).
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

// powerScore applies coe to the base score, a cut-off exponential: an entry
// whose every edge is over-exercised drops to the floor, the rest decay
// exponentially in Picked (over-fuzzed entries give budget back). The
// baseline fatigue factor is disabled under the power schedule so coe fully
// owns the pick-count response.
func (f *Fuzzer) powerScore(score int, e *QueueEntry) int {
	if rare, mean := f.edgeRarity(e); rare > mean {
		// Cut-off: even this entry's rarest edge is over-exercised relative
		// to the campaign mean (edgeRarity yields rare == mean == 0 while no
		// pick data exists, so the cut-off never fires on an empty signal);
		// spend the minimum here.
		return energyMinScore
	}
	return score >> min(e.Picked, powerDecayCap)
}

// SetPeerEdgePicks installs the aggregated per-edge pick frequencies of
// the other campaign workers (broker feedback, refreshed every sync). The
// rarity signal then ranks edges by campaign-wide attention instead of
// local attention, so an entry whose edges the other workers have worn out
// is cut off here too instead of looking rare to each worker in turn.
func (f *Fuzzer) SetPeerEdgePicks(picks map[uint32]uint64, sum uint64) {
	f.peerPicks = picks
	f.peerPickSum = sum
}

// PeerPickSum returns the total peer picks last installed by
// SetPeerEdgePicks (campaign telemetry / tests).
func (f *Fuzzer) PeerPickSum() uint64 { return f.peerPickSum }

// edgeRarity reports the pick frequency of e's rarest covered edge and the
// mean pick frequency across all tracked edges — the rarity signal coe's
// cut-off reads. Both sides combine local picks with
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
// short-horizon tuning). The power schedule keeps that ceiling while the
// frontier still holds never-picked entries (first rounds for fresh states
// stay the priority), then lifts it with the campaign horizon: the deeper
// the campaign is into the re-pick regime — measured by the mean pick
// count across the queue — the more an outsized round on a cheap, deep
// entry that coe has not cut off is worth, up to powerHorizonMaxBoost x
// the baseline.
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

// EntryMeta is the durable scheduler state of one queue entry. A checkpoint
// keeps one per queue file, in queue order (SchedMeta, EncodeSchedState), so
// entry i belongs to queue file i: a resume matches them by position, which
// tells apart two entries whose inputs are the same bytes. A resumed campaign
// re-executes its saved queue (so coverage is rebuilt locally, never trusted
// from disk), re-queues every entry and re-attaches this metadata, so
// scheduling picks up where it left off instead of re-trimming and
// re-boosting every entry.
type EntryMeta struct {
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

// hashed counts InputKey calls in this process (HashedInputs).
var hashed atomic.Uint64

// InputKey returns the content key of an input: the SHA-256 of the
// serialized bytecode, as a 32-byte string (raw digest bytes — a map key,
// not printable). The campaign broker names corpus entries and claims by it;
// QueueEntry.Key memoizes it.
func InputKey(in *spec.Input) string {
	hashed.Add(1)
	var buf [1024]byte // most inputs encode into it, on the stack
	sum := sha256.Sum256(spec.AppendSerialize(buf[:0], in))
	return string(sum[:])
}

// HashedInputs returns how many inputs InputKey has hashed in this process:
// what a test reads around a path that must hash none.
func HashedInputs() uint64 { return hashed.Load() }

// SchedMeta snapshots the scheduler metadata of every file EncodeQueue
// writes, in the same order: each queue entry's, then, until the first Step
// imports the seeds, the metadata each seed was restored with (the zero
// EntryMeta for a seed restored with none).
func (f *Fuzzer) SchedMeta() []EntryMeta {
	out := make([]EntryMeta, len(f.Queue)+len(f.seeds))
	for i, e := range f.Queue {
		out[i] = EntryMeta{
			Depth:      e.Depth,
			ExecTime:   e.ExecTime,
			Picked:     e.Picked,
			Trimmed:    e.Trimmed,
			AggrBack:   e.aggrBack,
			AggrBarren: e.aggrBarren,
			Dominated:  e.GloballyDominated,
		}
	}
	copy(out[len(f.Queue):], f.opts.SeedMeta) // nil once the seeds are imported
	return out
}

// restore re-attaches restored metadata to e, a seed the first Step has just
// queued. A restored execution time of zero keeps the one just measured.
func (e *QueueEntry) restore(m *EntryMeta) {
	e.Depth = m.Depth
	if m.ExecTime > 0 {
		e.ExecTime = m.ExecTime
	}
	e.Picked = m.Picked
	e.Trimmed = m.Trimmed
	e.aggrBack = m.AggrBack
	e.aggrBarren = m.AggrBarren
	e.GloballyDominated = m.Dominated
}

// PowerMeta is the durable power-schedule state of one fuzzer: the
// per-edge pick-frequency map and the total pick count the horizon-aware
// energy ceiling reads. Without it a resumed long campaign would restart
// the rarity signal from zero and stop cutting off the edges it had
// already worn out.
type PowerMeta struct {
	TotalPicked uint64
	EdgePicks   map[uint32]uint64
}

// PowerState snapshots the fuzzer's power-schedule state.
func (f *Fuzzer) PowerState() *PowerMeta {
	return &PowerMeta{TotalPicked: f.totalPicked, EdgePicks: maps.Clone(f.edgePicks)}
}

// SchedStateFile is the one file per worker a campaign checkpoint keeps this
// state in, next to the worker's queue/ directory.
const SchedStateFile = "sched.bin"

// Bytes an entry and an edge take in the stream: what bounds the two counts
// against the bytes left before either sizes an allocation.
const (
	entryMetaLen = 8 + 8 + 8 + 1 + 8 + 8 + 1
	edgePickLen  = 4 + 8
)

// EncodeSchedState appends the sched.bin form of one worker's scheduler
// metadata and power state to w, in the bounded canonical codec the guest
// state image uses:
//
//	u32 n | n × (i64 depth | i64 exec_time_ns | i64 picked | bool trimmed |
//	             i64 aggr_back | i64 aggr_barren | bool dominated)
//	u64 total_picked
//	u32 m | m × (u32 edge | u64 picks), edges strictly ascending
//
// Entries keep queue order, which is the order of the queue files beside
// them: entry i belongs to queue file i, and carries no key.
// DecodeSchedState(EncodeSchedState(x)) = x, and a stream that decodes is the
// stream its contents encode to.
func EncodeSchedState(w *guest.StateWriter, meta []EntryMeta, power *PowerMeta) {
	w.U32(uint32(len(meta)))
	for i := range meta {
		m := &meta[i]
		w.Int(m.Depth)
		w.I64(int64(m.ExecTime))
		w.Int(m.Picked)
		w.Bool(m.Trimmed)
		w.Int(m.AggrBack)
		w.Int(m.AggrBarren)
		w.Bool(m.Dominated)
	}
	w.U64(power.TotalPicked)
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
	meta := make([]EntryMeta, r.Count(entryMetaLen))
	for i := range meta {
		m := &meta[i]
		*m = EntryMeta{
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
	power := &PowerMeta{TotalPicked: r.U64()}
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
