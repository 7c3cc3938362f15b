package campaign

import (
	"math/bits"
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
// stated once, here; campaign.go's driver loop makes every call, in the
// order its schedule gives.
//
// The contract holds for whole calls: exchange takes the broker's one mutex
// on entry and holds it to its end, so even concurrent exchanges apply
// whole deltas one after another. Within an exchange the delta is applied
// in one pass, in publication order: each publication's trace is merged
// into the virgin map (the dedup verdict) and competes for the edges it
// covers, and every win or displacement updates the claim counts and
// demotion notices as it happens; then come the worker's virgin delta, its
// trims' claim transfers and the cross-edge bookkeeping (corpus,
// redistribution, crashes, telemetry). Every outcome is a pure function of
// the deltas and their order.
type broker struct {
	// mu guards every field below; exchange holds it for the whole call.
	mu sync.Mutex

	// virgin is the global coverage map.
	virgin coverage.Virgin
	// claimTable is the global favored competition (per edge) and what each
	// competing input's claims bind (per claimant).
	claimTable

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

// claimTable is the global favored competition: per edge, the cheapest
// (favFactor-minimal) published claim, and per claimant — an input, by
// content key — what its claims bind. An input is numbered when it first
// takes an edge and keeps its number for good: claims, trims and demotions
// work on numbers, and only publications, trims and checkpoints name keys.
type claimTable struct {
	// index numbers each claimant key; claimants[n] is claimant n.
	index     map[string]int32
	claimants []claimant
	// claimed lists every edge ever claimed, ascending, and claims[i] is
	// claimed[i]'s current claim: an edge joins at its first claim and
	// never leaves, because a claim is only ever replaced.
	claimed []uint32
	claims  []claim
	// has and before find an edge in claimed without a search, 64 edges to
	// a word: edge e is claimed when bit e%64 of has[e/64] is set, and its
	// position in claimed is before[e/64] plus the set bits below it in
	// that word. Together they take 12 KiB however many edges are claimed.
	has    [coverage.MapSize / 64]uint64
	before [coverage.MapSize / 64]int32
}

// find returns edge's position in claimed, or the position it would be
// inserted at, and whether it is there.
func (t *claimTable) find(edge uint32) (int, bool) {
	w, bit := edge/64, uint64(1)<<(edge%64)
	return int(t.before[w]) + bits.OnesCount64(t.has[w]&(bit-1)), t.has[w]&bit != 0
}

// insert files edge's first claim at position at, which find returned.
func (t *claimTable) insert(at int, edge uint32, c claim) {
	t.claimed = slices.Insert(t.claimed, at, edge)
	t.claims = slices.Insert(t.claims, at, c)
	t.has[edge/64] |= 1 << (edge % 64)
	for w := edge/64 + 1; w < uint32(len(t.before)); w++ {
		t.before[w]++
	}
}

// claim is one edge's current claim.
type claim struct {
	fav int64 // favFactor of the claiming entry (lower is better)
	who int32 // the claimant's number
}

// claimant is one input's standing in the competition.
type claimant struct {
	key string // content key (core.InputKey) of the input
	// wins counts the edges it holds (GlobalFav and demotion read it).
	wins int
	// edges lists the edges it claimed since it last held none, so that a
	// trim's claim transfer touches only those; an entry goes stale when its
	// edge is displaced (claims is authoritative).
	edges []uint32
	// restored are the broker-owned corpus entries carrying the input (the
	// ones a resume restored), demoted in place when it is fully displaced.
	restored []*core.QueueEntry
	// workers are the workers holding live copies, ascending. They are
	// demoted by notice instead, because the broker must never write a live
	// entry another goroutine owns.
	workers []int
}

// number returns key's claimant number, numbering it first if it has none.
func (t *claimTable) number(key string) int32 {
	if n, ok := t.index[key]; ok {
		return n
	}
	n := int32(len(t.claimants))
	t.index[key] = n
	t.claimants = append(t.claimants, claimant{key: key})
	return n
}

// wins returns how many edges key holds.
func (t *claimTable) wins(key string) int {
	if n, ok := t.index[key]; ok {
		return t.claimants[n].wins
	}
	return 0
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
		claimTable: claimTable{index: make(map[string]int32)},
		crashSeen:  make(map[string]bool),
		pickTotals: make(map[uint32]uint64),
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
// read-only with every receiver (see pubDelta), and corpus is the index in
// broker.corpus of the entry it was accepted as — what the receiver's queued
// copy links to (worker.links) — or -1 for an import a resume restored.
type importItem struct {
	input     *spec.Input
	corpus    int
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
	b.mu.Lock()
	defer b.mu.Unlock()

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
			gf := b.wins(p.key) > 0
			if gf != (pass == 0) {
				continue
			}
			b.corpus = append(b.corpus, brokerEntry{Worker: id, Entry: p.entry, GlobalFav: gf})
			item := importItem{input: p.input, corpus: len(b.corpus) - 1, globalFav: gf}
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
			b.bind(b.number(d.pubs[i].key), id)
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
	who, known := b.index[key]
	if !known {
		who = -1 // numbered at its first win
	}
	for _, h := range hits {
		if h.Bucket == 0 || h.Index >= coverage.MapSize {
			continue
		}
		at, ok := b.find(h.Index)
		if ok && b.claims[at].who == who {
			b.claims[at].fav = fav
			won = true
			continue
		}
		if ok && (!displace || b.claims[at].fav <= fav) {
			continue
		}
		if who < 0 {
			who = b.number(key)
		}
		if ok {
			b.release(b.claims[at].who)
			b.claims[at] = claim{fav: fav, who: who}
		} else {
			b.insert(at, h.Index, claim{fav: fav, who: who})
		}
		c := &b.claimants[who]
		c.edges = append(c.edges, h.Index)
		c.wins++
		won = true
	}
	return won
}

// release takes one displaced edge from claimant n's count. When the last
// one goes, every copy of the input is demoted — the broker-owned ones in
// place, the workers holding live copies by notice at their next exchange —
// and the claimant drops its edge list.
func (b *broker) release(n int32) {
	c := &b.claimants[n]
	if c.wins--; c.wins > 0 {
		return
	}
	for _, loser := range c.restored {
		loser.GloballyDominated = true
	}
	for _, wid := range c.workers {
		b.notices[wid] = append(b.notices[wid], notice{key: c.key})
	}
	c.edges, c.restored, c.workers = nil, nil, nil
}

// transferClaims re-files the claims r.oldKey still holds under r.newKey at
// the new cost, and moves their count, restored entries and bound workers
// with them — the lazy-trim path: the input was published (and claimed its
// edges) in pre-trim form, then its owning worker trimmed it, changing both
// content key and measured cost. The old claimant's edge list may carry
// edges displaced since they were claimed; only the edges it still holds are
// re-filed. An old key that holds none keeps what it binds.
func (b *broker) transferClaims(r retrimDelta) {
	from, ok := b.index[r.oldKey]
	if !ok {
		return
	}
	to := from
	if r.newKey != r.oldKey {
		to = -1 // numbered at the first claim it takes over
	}
	for _, idx := range b.claimants[from].edges {
		at, _ := b.find(idx)
		if b.claims[at].who != from {
			continue
		}
		if to < 0 {
			to = b.number(r.newKey)
		}
		b.claims[at] = claim{fav: r.fav, who: to}
		if to != from {
			b.claimants[to].edges = append(b.claimants[to].edges, idx)
		}
	}
	if to == from {
		return
	}
	src := &b.claimants[from]
	src.edges = nil
	if src.wins == 0 {
		return
	}
	dst := &b.claimants[to] // numbered: every edge src holds is on its list
	dst.wins += src.wins
	dst.restored = append(dst.restored, src.restored...)
	for _, wid := range src.workers {
		b.bind(to, wid)
	}
	src.wins, src.restored, src.workers = 0, nil, nil
}

// bind records that worker id holds a live copy of claimant n's input.
// Caller holds mu.
func (b *broker) bind(n int32, id int) {
	ws := b.claimants[n].workers
	if at, found := slices.BinarySearch(ws, id); !found {
		b.claimants[n].workers = slices.Insert(ws, at, id)
	}
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
