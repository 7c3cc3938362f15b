package campaign

import (
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/spec"
)

// maxPendingImports bounds each worker's import queue. When the rest of the
// campaign publishes faster than a worker pulls, non-favored entries are
// dropped first — the worker falls behind on redistribution instead of
// stalling the publishers (every dropped entry is still in the global
// corpus).
const maxPendingImports = 256

// broker is the campaign's one sync algorithm and its shared state. A
// worker hands it an epochDelta — everything it queued, trimmed, crashed on
// and covered since its last call — through exchange, and gets back the
// verdicts on its publications, its pending imports and demotion notices,
// and the campaign-wide pick totals. That worker-to-broker contract is
// stated once, here; campaign.go only decides when each worker calls it
// (the lockstep and async schedules).
//
// The contract holds for whole calls: exchange takes the broker's one mutex
// on entry and holds it to its end, so concurrent exchanges (the async
// schedule) apply whole deltas one after another, and every run's outcome
// is that of some serial order of its exchanges. Within an exchange the
// delta is applied in one pass, in publication order: each publication's
// trace is merged into the virgin map (the dedup verdict) and competes for
// the edges it covers, and every win or displacement updates the claim
// counts and demotion notices as it happens; then come the worker's virgin
// delta, its trims' claim transfers and the cross-edge bookkeeping (corpus,
// redistribution, crashes, telemetry). Called from one goroutine in a fixed
// order (the lockstep schedule), every outcome is a pure function of the
// deltas.
type broker struct {
	// mu guards every field below; exchange holds it for the whole call.
	mu sync.Mutex
	// acquisitions/contended count exchange's acquisitions of mu and how
	// many found it already held — the contention telemetry the -campaign
	// scaling bench reports.
	acquisitions uint64
	contended    uint64

	// virgin is the global coverage map.
	virgin coverage.Virgin
	// topRated holds, per edge, the cheapest (favFactor-minimal) published
	// claim.
	topRated map[uint32]topClaim
	// claimEdges indexes, per claimant key, the edges ever claimed under it,
	// so a trim's claim transfer touches only that key's edges. Entries go
	// stale when an edge is displaced (topRated is authoritative); stale keys
	// are cleaned lazily on transfer.
	claimEdges map[string][]uint32

	// corpus holds the globally fresh entries, in acceptance order. Each
	// remembers the worker that published it (entry IDs are per-worker,
	// so (worker, ID) is the global identity).
	corpus []brokerEntry
	// crashSeen/crashes dedup crash findings across workers with the same
	// (kind, message) key core.Fuzzer uses locally.
	crashSeen map[string]bool
	crashes   []core.Crash
	// covLog is the aggregated coverage-over-time series.
	covLog     []core.CoveragePoint
	lastSample time.Duration
	// timeBase is the cumulative virtual time of epochs before a resume;
	// worker-local timestamps (which restart at zero per epoch) are
	// shifted by it so campaign-level times stay monotone.
	timeBase time.Duration
	// published/deduped count broker decisions (campaign telemetry).
	published uint64
	deduped   uint64

	// Global favored competition, per input (topRated is per edge).
	// claimWins counts how many edges each claimant key currently holds in
	// topRated (GlobalFav and demotion read it). claimants maps a claimant
	// key to broker-owned entries carrying that input (the corpus entries a
	// resume restored) so a fully displaced claim demotes them in place.
	// claimWorkers maps a claimant key to the workers holding live copies;
	// those are demoted via notices instead, because the broker must never
	// write a live entry another goroutine owns.
	claimWins    map[string]int
	claimants    map[string][]*core.QueueEntry
	claimWorkers map[string]map[int]struct{}

	// Per-worker queues, indexed by worker ID (sized by initWorkers).
	pending  [][]importItem
	notices  [][]notice
	reported []time.Duration
	// epochsTotal counts exchanges; importsDropped counts pending-queue
	// overflow drops; syncWall accumulates wall-clock time spent inside
	// exchanges.
	epochsTotal    uint64
	importsDropped uint64
	syncWall       time.Duration

	// Campaign-wide per-edge pick totals for the power schedules' rarity
	// signal.
	pickTotals  map[uint32]uint64
	pickSum     uint64
	lastPicks   []map[uint32]uint64
	lastPickSum []uint64
}

// topClaim is one edge's best known coverage claim across all workers.
type topClaim struct {
	fav int64  // favFactor of the claiming entry (lower is better)
	key string // content key (core.InputKey) of the claiming input
}

// brokerEntry is one accepted corpus entry plus its provenance.
type brokerEntry struct {
	Worker int
	Entry  *core.QueueEntry
	// GlobalFav records that the entry currently holds at least one edge
	// in the broker-wide favored competition (settled once the whole delta
	// that published it has competed, so an entry displaced later in the
	// same delta is not redistributed as a winner).
	GlobalFav bool
}

func newBroker() *broker {
	return &broker{
		topRated:     make(map[uint32]topClaim),
		claimEdges:   make(map[string][]uint32),
		crashSeen:    make(map[string]bool),
		claimWins:    make(map[string]int),
		claimants:    make(map[string][]*core.QueueEntry),
		claimWorkers: make(map[string]map[int]struct{}),
		pickTotals:   make(map[uint32]uint64),
	}
}

// initWorkers sizes the per-worker queues. Idempotent.
func (b *broker) initWorkers(n int) {
	if b.pending != nil {
		return
	}
	b.pending = make([][]importItem, n)
	b.notices = make([][]notice, n)
	b.reported = make([]time.Duration, n)
	b.lastPicks = make([]map[uint32]uint64, n)
	b.lastPickSum = make([]uint64, n)
}

// reportedElapsedFor returns the virtual time worker id declared at its
// most recent exchange. Safe to call while a campaign is running —
// tests use it to watch fast workers progress past a stalled peer.
func (b *broker) reportedElapsedFor(id int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id < 0 || id >= len(b.reported) {
		return 0
	}
	return b.reported[id]
}

// sample appends a point to the aggregated coverage log, collapsing
// consecutive rounds with no coverage change to at most one point per
// virtual minute (same policy as core.Fuzzer's log).
func (b *broker) sample(now time.Duration) {
	edges := b.virgin.Edges()
	if len(b.covLog) == 0 || b.covLog[len(b.covLog)-1].Edges != edges ||
		now-b.lastSample >= time.Minute {
		b.covLog = append(b.covLog, core.CoveragePoint{T: now, Edges: edges})
		b.lastSample = now
	}
}

// pubDelta is one newly queued entry as its owner publishes it. The trace
// is the owner's live data, read only while the owner is blocked in
// exchange. The input outlives the call — receivers import it epochs later
// on their own goroutines — and needs no copy: a queued *spec.Input is never
// written again (a trim installs a new one on the entry; package spec keeps
// the arrays it reaches constant). entry is an owner-only token: the broker
// stores it (corpus provenance, read when quiesced at checkpoint time) but
// never dereferences it during a run.
type pubDelta struct {
	key     string
	fav     int64
	favored bool
	cov     []coverage.BucketHit // the entry's recorded trace (QueueEntry.Cov)
	input   *spec.Input
	entry   *core.QueueEntry
}

// retrimDelta records a trim's content-key change for the claim transfer.
type retrimDelta struct {
	oldKey, newKey string
	fav            int64
}

// epochDelta is everything one worker publishes at one epoch boundary.
type epochDelta struct {
	pubs    []pubDelta
	retrims []retrimDelta
	crashes []core.Crash
	// virginDelta carries the worker's virgin-map bits not yet published,
	// mask-valued (coverage.AppendNewTo).
	virginDelta []coverage.BucketHit
	// picks is the worker's full per-edge pick map (nil when the power
	// schedule is off); pickSum its total.
	picks   map[uint32]uint64
	pickSum uint64
	elapsed time.Duration
}

// importItem is one pending redistribution entry in a worker's bounded
// pull queue. The input is the publisher's own queue entry input, shared
// read-only with every receiver (see pubDelta).
type importItem struct {
	input     *spec.Input
	globalFav bool
}

// notice tells a worker that every live copy it holds of an input lost the
// global favored competition (full displacement) and should be demoted.
type notice struct {
	key string
}

// exchange applies one worker's epoch delta and returns everything the
// worker pulls at its epoch boundary: per-publication win verdicts (the
// worker applies GloballyDominated to its own live entries), its drained
// import queue and demotion notices, and — when the power schedule is on —
// a clone of the campaign-wide pick totals to derive the peer rarity
// signal from. The worker never waits on other workers, only on the
// exchange in progress, if any.
//
// An entry is globally fresh if its recorded trace still adds something to
// the global map; entries whose coverage another worker already published
// merge to nothing and are deduped — AFL-style sync dedup, but exact,
// because entries carry their bucketed trace. Every publication competes,
// fresh or not: a duplicate is a live copy of an already-known input (a
// receiver's re-executed import, or a re-imported queue entry after a
// resume), and competing it either binds its worker as a claimant of the
// edges the input holds (so a later displacement demotes every copy) or
// demotes it right away when the input already lost. Only fresh entries
// may displace other inputs' claims, though: duplicates are never
// redistributed, so letting one unseat an incumbent would demote every
// worker's representative for those edges while the cheaper input exists
// on a single worker. A trim's claim transfer displaces nothing either —
// it renames and re-prices the claims the input already held.
func (b *broker) exchange(id int, d epochDelta) (won []bool, imports []importItem, notes []notice, peerPicks map[uint32]uint64, peerSum uint64) {
	start := time.Now() //nyx:wallclock sync-cost telemetry (SyncStats.SyncWall), never steers fuzzing
	if !b.mu.TryLock() {
		b.mu.Lock()
		b.contended++
	}
	defer b.mu.Unlock()
	b.acquisitions++

	won = make([]bool, len(d.pubs))
	fresh := make([]bool, len(d.pubs))
	for i := range d.pubs {
		p := &d.pubs[i]
		fresh[i], _ = b.virgin.MergeBuckets(p.cov)
		won[i] = b.compete(p.key, p.fav, p.cov, fresh[i])
	}
	// The virgin delta also carries bucket upgrades from executions that
	// were not queued.
	b.virgin.MergeMasked(d.virginDelta)
	for _, r := range d.retrims {
		b.transferClaims(r)
	}
	b.published += uint64(len(d.pubs))
	// Accept the fresh publications and fan them out to every other
	// worker's bounded import queue, global winners first: importing
	// re-executes entries against each receiver's own target, so
	// front-loading the winners puts the entries most likely to seed new
	// coverage at the head of every import budget.
	for pass := 0; pass < 2; pass++ {
		for i := range d.pubs {
			p := &d.pubs[i]
			if !fresh[i] {
				continue
			}
			gf := b.claimWins[p.key] > 0
			if gf != (pass == 0) {
				continue
			}
			b.corpus = append(b.corpus, brokerEntry{Worker: id, Entry: p.entry, GlobalFav: gf})
			item := importItem{input: p.input, globalFav: gf}
			for wid := range b.pending {
				if wid != id {
					b.pushPending(wid, item)
				}
			}
		}
	}
	for i := range d.pubs {
		if !fresh[i] {
			b.deduped++
		}
		if won[i] {
			b.bindClaimWorker(d.pubs[i].key, id)
		}
	}
	for _, cr := range d.crashes {
		if !b.crashSeen[cr.Key()] {
			b.crashSeen[cr.Key()] = true
			cr.FoundAt += b.timeBase
			b.crashes = append(b.crashes, cr)
		}
	}
	if d.picks != nil {
		last := b.lastPicks[id]
		for idx, n := range d.picks {
			b.pickTotals[idx] += n - last[idx]
		}
		b.lastPicks[id] = d.picks
		b.pickSum += d.pickSum - b.lastPickSum[id]
		b.lastPickSum[id] = d.pickSum
		peerPicks = make(map[uint32]uint64, len(b.pickTotals))
		for idx, n := range b.pickTotals {
			peerPicks[idx] = n
		}
		peerSum = b.pickSum
	}
	b.reported[id] = d.elapsed
	b.epochsTotal++
	var maxEl time.Duration
	for _, el := range b.reported {
		if el > maxEl {
			maxEl = el
		}
	}
	b.sample(b.timeBase + maxEl)

	imports = b.pending[id]
	b.pending[id] = nil
	notes = b.notices[id]
	b.notices[id] = nil
	b.syncWall += time.Since(start) //nyx:wallclock sync-cost telemetry, never steers fuzzing
	return won, imports, notes, peerPicks, peerSum
}

// compete enters one publication's hits into the global favored
// competition: per edge, the claim with the smallest favFactor wins —
// core.Fuzzer's per-worker top-rated update, restated campaign-wide. An
// edge already claimed by the publication's own input (another live copy
// of it) counts as held, refreshing the claim's cost to the latest
// measurement. displace controls whether the publication may unseat other
// inputs' claims (fresh) or only refresh and take unclaimed edges
// (duplicate). Zero-bucket and out-of-range hits cover nothing and claim
// nothing.
func (b *broker) compete(key string, fav int64, hits []coverage.BucketHit, displace bool) (won bool) {
	for _, h := range hits {
		if h.Bucket == 0 || h.Index >= coverage.MapSize {
			continue
		}
		cur, ok := b.topRated[h.Index]
		if ok && cur.key == key {
			if cur.fav != fav {
				b.topRated[h.Index] = topClaim{fav: fav, key: key}
			}
			won = true
			continue
		}
		if ok && (!displace || cur.fav <= fav) {
			continue
		}
		if ok {
			b.release(cur.key)
		}
		b.topRated[h.Index] = topClaim{fav: fav, key: key}
		b.claimEdges[key] = append(b.claimEdges[key], h.Index)
		b.claimWins[key]++
		won = true
	}
	return won
}

// release takes one displaced edge from key's claim count. When the last
// one goes, every copy of the input is demoted: the broker-owned claimants
// in place, the workers holding live copies by notice at their next
// exchange.
func (b *broker) release(key string) {
	if b.claimWins[key]--; b.claimWins[key] > 0 {
		return
	}
	delete(b.claimWins, key)
	for _, loser := range b.claimants[key] {
		loser.GloballyDominated = true
	}
	delete(b.claimants, key)
	for _, wid := range slices.Sorted(maps.Keys(b.claimWorkers[key])) {
		b.notices[wid] = append(b.notices[wid], notice{key: key})
	}
	delete(b.claimWorkers, key)
}

// transferClaims re-files the claims r.oldKey still holds under r.newKey at
// the new cost, and moves their count, claimants and bound workers with
// them — the lazy-trim path: the input was published (and claimed its
// edges) in pre-trim form, then its owning worker trimmed it, changing both
// content key and measured cost. The per-key index may carry edges
// displaced since they were claimed; only claims topRated still attributes
// to oldKey are re-filed.
func (b *broker) transferClaims(r retrimDelta) {
	for _, idx := range b.claimEdges[r.oldKey] {
		if b.topRated[idx].key != r.oldKey {
			continue
		}
		b.topRated[idx] = topClaim{fav: r.fav, key: r.newKey}
		if r.oldKey != r.newKey {
			b.claimEdges[r.newKey] = append(b.claimEdges[r.newKey], idx)
		}
	}
	if r.oldKey == r.newKey {
		return
	}
	delete(b.claimEdges, r.oldKey)
	n := b.claimWins[r.oldKey]
	if n == 0 {
		return
	}
	delete(b.claimWins, r.oldKey)
	b.claimWins[r.newKey] += n
	b.claimants[r.newKey] = append(b.claimants[r.newKey], b.claimants[r.oldKey]...)
	delete(b.claimants, r.oldKey)
	if ws := b.claimWorkers[r.oldKey]; ws != nil {
		dst := b.claimWorkers[r.newKey]
		if dst == nil {
			b.claimWorkers[r.newKey] = ws
		} else {
			for wid := range ws {
				dst[wid] = struct{}{}
			}
		}
		delete(b.claimWorkers, r.oldKey)
	}
}

// bindClaimWorker records that worker id holds a live copy of key.
// Caller holds mu.
func (b *broker) bindClaimWorker(key string, id int) {
	ws := b.claimWorkers[key]
	if ws == nil {
		ws = make(map[int]struct{})
		b.claimWorkers[key] = ws
	}
	ws[id] = struct{}{}
}

// pushPending enqueues an import item on worker wid's bounded queue. A
// full queue drops its oldest non-favored entry; one holding only global
// winners drops a non-favored newcomer instead, and its oldest entry for a
// favored one. Caller holds mu.
func (b *broker) pushPending(wid int, item importItem) {
	q := b.pending[wid]
	if len(q) >= maxPendingImports {
		b.importsDropped++
		drop := slices.IndexFunc(q, func(it importItem) bool { return !it.globalFav })
		if drop < 0 {
			if !item.globalFav {
				return
			}
			drop = 0
		}
		q = append(q[:drop], q[drop+1:]...)
	}
	b.pending[wid] = append(q, item)
}
