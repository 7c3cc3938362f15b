package campaign

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/spec"
)

// The broker is the campaign's one sync algorithm. A worker hands it an
// epochDelta — everything it queued, trimmed, crashed on and covered since
// its last call — through exchange, and gets back the verdicts on its
// publications, its pending imports and demotion notices, and the
// campaign-wide pick totals. That worker-to-broker contract is stated once,
// here; campaign.go only decides when each worker calls it (the lockstep
// and async schedules).
//
// State is sharded by edge-index range: the virgin map and the per-edge
// top-rated competition split into brokerShards contiguous slices of the
// coverage bitmap, each with its own lock, so exchanges touching disjoint
// edge ranges proceed concurrently; the one virgin map's bytes in a shard's
// range are merged into (coverage's shared-map merges) under that shard's
// lock only. Cross-edge state — the per-input claim counts the favored
// competition settles on, the corpus, crashes, the coverage log and the
// per-worker import/notice queues — stays central under one mutex.
//
// A delta is applied in three phases: per-shard merge (coverage dedup),
// per-shard compete (claim decisions, emitted as events), then one central
// pass (claim accounting, corpus, redistribution, crashes, telemetry).
// Shard locks are taken one at a time and never nested with the central
// mutex. When exchanges interleave (the async schedule), claim wins can
// transiently over- or under-count as a displacement races a trim's claim
// transfer, so GloballyDominated demotion is advisory: it self-heals — the
// count is clamped at zero — and only ever biases scheduling, never
// correctness. Called from one goroutine in a fixed order (the lockstep
// schedule), every outcome is a pure function of the deltas.
const (
	brokerShards = 16
	shardWidth   = coverage.MapSize / brokerShards
	// maxPendingImports bounds each worker's import queue. When the rest of
	// the campaign publishes faster than a worker pulls, non-favored
	// entries are dropped first — the worker falls behind on
	// redistribution instead of stalling the publishers (every dropped
	// entry is still in the global corpus).
	maxPendingImports = 256
)

// shardFor maps an in-range edge index to its shard.
func shardFor(idx uint32) int { return int(idx / shardWidth) }

// brokerShard is one contiguous edge-range slice of the broker: the lock
// over the virgin map's bytes in [lo, hi), and the top-rated claims and
// per-key claimed-edge index for edges in that range.
type brokerShard struct {
	mu sync.Mutex
	// topRated holds, per edge in this shard's range, the cheapest
	// (favFactor-minimal) published claim.
	topRated map[uint32]topClaim
	// claimEdges indexes, per claimant key, the edges in this shard ever
	// claimed under it, so a trim's claim transfer touches only that key's
	// edges. Entries go stale when an edge is displaced (topRated is
	// authoritative); stale keys are cleaned lazily on transfer.
	claimEdges map[string][]uint32
	// acquisitions/contended count lock acquisitions and how many found
	// the shard already locked — the contention telemetry the
	// -campaign scaling bench reports.
	acquisitions atomic.Uint64
	contended    atomic.Uint64
}

// lock acquires the shard lock, counting contended acquisitions.
func (sh *brokerShard) lock() {
	if !sh.mu.TryLock() {
		sh.contended.Add(1)
		sh.mu.Lock()
	}
	sh.acquisitions.Add(1)
}

func (sh *brokerShard) unlock() { sh.mu.Unlock() }

// broker is the campaign's shared state: edge-sharded coverage and claims
// plus the central cross-edge bookkeeping.
type broker struct {
	shards [brokerShards]brokerShard
	// virgin is the global coverage map, partitioned by the shard locks.
	virgin coverage.Virgin

	// mu guards every field below.
	mu sync.Mutex
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
	// edgesTotal counts the virgin map's edges, so sampling and Coverage()
	// never need the shard locks.
	edgesTotal int

	// Global favored competition, cross-edge half. claimWins counts how
	// many edges each claimant key currently holds across all shards
	// (authoritative; GlobalFav and demotion read it). claimants maps a
	// claimant key to broker-owned entries carrying that input (the corpus
	// entries a resume restored) so a fully displaced claim demotes them
	// in place. claimWorkers maps a claimant key to the workers holding
	// live copies; those are demoted via notices instead, because the
	// broker must never write a live entry another goroutine owns.
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
	b := &broker{
		crashSeen:    make(map[string]bool),
		claimWins:    make(map[string]int),
		claimants:    make(map[string][]*core.QueueEntry),
		claimWorkers: make(map[string]map[int]struct{}),
		pickTotals:   make(map[uint32]uint64),
	}
	for si := range b.shards {
		b.shards[si].topRated = make(map[uint32]topClaim)
		b.shards[si].claimEdges = make(map[string][]uint32)
	}
	return b
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

// topRatedCount returns the number of edges with a live claim across all
// shards. Quiesced callers only (tests, checkpoint).
func (b *broker) topRatedCount() int {
	n := 0
	for si := range b.shards {
		n += len(b.shards[si].topRated)
	}
	return n
}

// sample appends a point to the aggregated coverage log, collapsing
// consecutive rounds with no coverage change to at most one point per
// virtual minute (same policy as core.Fuzzer's log).
func (b *broker) sample(now time.Duration) {
	edges := b.edgesTotal
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
	// hits is the entry's recorded trace regrouped by owning shard
	// (groupByShard): shard si's slice is hits[off[si]:off[si+1]].
	hits  []coverage.BucketHit
	off   [brokerShards + 1]int32
	input *spec.Input
	entry *core.QueueEntry
}

// shardHits returns the part of the publication's trace shard si owns.
func (p *pubDelta) shardHits(si int) []coverage.BucketHit {
	return p.hits[p.off[si]:p.off[si+1]]
}

// groupByShard writes cov's hits into dst (len(dst) >= len(cov)) grouped
// by the shard owning each index — a counting sort; zero-bucket and
// out-of-range hits carry no coverage and are dropped — and returns the
// per-shard offsets. Grouping once per publication lets each shard phase
// read only its own hits instead of scanning the whole trace under every
// shard's lock.
func groupByShard(dst, cov []coverage.BucketHit) (off [brokerShards + 1]int32) {
	live := func(h coverage.BucketHit) bool { return h.Bucket != 0 && h.Index < coverage.MapSize }
	for _, h := range cov {
		if live(h) {
			off[shardFor(h.Index)+1]++
		}
	}
	for si := 0; si < brokerShards; si++ {
		off[si+1] += off[si]
	}
	next := off
	for _, h := range cov {
		if live(h) {
			si := shardFor(h.Index)
			dst[next[si]] = h
			next[si]++
		}
	}
	return off
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
	// mask-valued and in ascending index order (coverage.AppendNewTo), so
	// the per-shard pass slices it without sorting.
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

// claimEvent is one shard-phase competition effect, applied centrally:
// a win (key claimed idx) or a loss (key was displaced from an edge).
type claimEvent struct {
	win bool
	key string
	idx uint32
}

// exchange applies one worker's epoch delta and returns everything the
// worker pulls at its epoch boundary: per-publication win verdicts (the
// worker applies GloballyDominated to its own live entries), its drained
// import queue and demotion notices, and — when the power schedule is on —
// a clone of the campaign-wide pick totals to derive the peer rarity
// signal from. The worker never waits on other workers: shard locks are
// held per-shard for one pass, the central mutex once.
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
	won = make([]bool, len(d.pubs))
	hasNew := make([]bool, len(d.pubs))
	var evts []claimEvent
	edgeDelta := 0

	// Phase 1: per-shard coverage merge — the dedup verdicts. Every
	// publication's trace and the worker's virgin delta (which also carries
	// bucket upgrades from executions that were not queued) fold into each
	// shard's range; a publication is globally fresh if any shard saw a
	// new bucket bit.
	vcur := 0
	for si := range b.shards {
		sh := &b.shards[si]
		hi := uint32(si+1) * shardWidth
		vend := vcur
		for vend < len(d.virginDelta) && d.virginDelta[vend].Index < hi {
			vend++
		}
		sh.lock()
		for i := range d.pubs {
			hn, n := b.virgin.MergeBucketsShared(d.pubs[i].shardHits(si))
			hasNew[i] = hasNew[i] || hn
			edgeDelta += n
		}
		_, n := b.virgin.MergeMaskedShared(d.virginDelta[vcur:vend])
		edgeDelta += n
		sh.unlock()
		vcur = vend
	}

	// Phase 2: per-shard competition and claim transfers. Decisions only
	// read shard state (topRated); their cross-edge effects are emitted
	// as events and applied centrally in phase 3.
	for si := range b.shards {
		sh := &b.shards[si]
		sh.lock()
		for i := range d.pubs {
			p := &d.pubs[i]
			var w bool
			evts, w = sh.compete(p.key, p.fav, p.shardHits(si), hasNew[i], evts)
			won[i] = won[i] || w
		}
		for _, r := range d.retrims {
			sh.transferClaims(r.oldKey, r.newKey, r.fav)
		}
		sh.unlock()
	}

	// Phase 3: central accounting.
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range evts {
		if e.win {
			b.claimWins[e.key]++
			continue
		}
		b.claimWins[e.key]--
		if b.claimWins[e.key] <= 0 {
			delete(b.claimWins, e.key)
			for _, loser := range b.claimants[e.key] {
				loser.GloballyDominated = true
			}
			delete(b.claimants, e.key)
			wids := make([]int, 0, len(b.claimWorkers[e.key]))
			for wid := range b.claimWorkers[e.key] {
				wids = append(wids, wid)
			}
			sort.Ints(wids)
			for _, wid := range wids {
				b.notices[wid] = append(b.notices[wid], notice{key: e.key})
			}
			delete(b.claimWorkers, e.key)
		}
	}
	for _, r := range d.retrims {
		// The shard phase already re-filed the held edges; move the
		// cross-edge accounting wholesale (claimWins counts exactly the
		// held edges, which is what the shards re-filed).
		if n := b.claimWins[r.oldKey]; n > 0 && r.oldKey != r.newKey {
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
			if !hasNew[i] {
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
		if !hasNew[i] {
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
	b.edgesTotal += edgeDelta
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

// compete enters one publication's hits in this shard into the global
// favored competition: per edge, the claim with the smallest favFactor
// wins — core.Fuzzer's per-worker top-rated update, restated campaign-wide.
// An edge already claimed by the publication's own input (another live copy
// of it) counts as held, refreshing the claim's cost to the latest
// measurement. displace controls whether the publication may unseat other
// inputs' claims (fresh) or only refresh and take unclaimed edges
// (duplicate). The cross-edge claim accounting is emitted as events.
func (sh *brokerShard) compete(key string, fav int64, hits []coverage.BucketHit, displace bool, evts []claimEvent) ([]claimEvent, bool) {
	won := false
	for _, h := range hits {
		cur, ok := sh.topRated[h.Index]
		if ok && cur.key == key {
			if cur.fav != fav {
				sh.topRated[h.Index] = topClaim{fav: fav, key: key}
			}
			won = true
			continue
		}
		if ok && (!displace || cur.fav <= fav) {
			continue
		}
		if ok {
			evts = append(evts, claimEvent{win: false, key: cur.key, idx: h.Index})
		}
		sh.topRated[h.Index] = topClaim{fav: fav, key: key}
		sh.claimEdges[key] = append(sh.claimEdges[key], h.Index)
		evts = append(evts, claimEvent{win: true, key: key, idx: h.Index})
		won = true
	}
	return evts, won
}

// transferClaims re-files the claims oldKey still holds in this shard under
// newKey at the new cost — the lazy-trim path: the input was published (and
// claimed its edges) in pre-trim form, then its owning worker trimmed it,
// changing both content key and measured cost. The per-key index may carry
// edges displaced since they were claimed; only claims topRated still
// attributes to oldKey are re-filed.
func (sh *brokerShard) transferClaims(oldKey, newKey string, fav int64) {
	for _, idx := range sh.claimEdges[oldKey] {
		if sh.topRated[idx].key != oldKey {
			continue
		}
		sh.topRated[idx] = topClaim{fav: fav, key: newKey}
		if oldKey != newKey {
			sh.claimEdges[newKey] = append(sh.claimEdges[newKey], idx)
		}
	}
	if oldKey != newKey {
		delete(sh.claimEdges, oldKey)
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
