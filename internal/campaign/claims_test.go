package campaign

import (
	"bytes"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/store"
)

// topClaim is one edge's claim as the content key and cost it names.
type topClaim struct {
	fav int64
	key string
}

// claimOn returns edge idx's claim, the zero topClaim when nobody claims it.
func (b *broker) claimOn(idx uint32) topClaim {
	at, ok := slices.BinarySearch(b.claimed, idx)
	if !ok {
		return topClaim{}
	}
	return topClaim{fav: b.claims[at].fav, key: b.claimants[b.claims[at].who].key}
}

// checkClaimTable fails t unless b's claim table is consistent: edges
// strictly ascending with a claim each and found by the edge index, every claimant indexed under its own
// key, its wins the number of claims naming it, every edge it holds on its
// edge list, no edges or restored entries kept once it holds nothing (a
// worker bound after its last edge went stays), and its workers ascending.
func checkClaimTable(t *testing.T, b *broker) {
	t.Helper()
	if len(b.claims) != len(b.claimed) {
		t.Fatalf("%d claims for %d claimed edges", len(b.claims), len(b.claimed))
	}
	for i, idx := range b.claimed {
		if i > 0 && b.claimed[i-1] >= idx {
			t.Fatalf("claimed edge %d after %d", idx, b.claimed[i-1])
		}
		if at, ok := b.find(idx); !ok || at != i {
			t.Fatalf("claimed edge %d is at %d, the edge index finds it at %d, %v", idx, i, at, ok)
		}
	}
	if n := int(b.before[len(b.before)-1]) + bits.OnesCount64(b.has[len(b.has)-1]); n != len(b.claimed) {
		t.Fatalf("the edge index counts %d of %d claimed edges", n, len(b.claimed))
	}
	if len(b.index) != len(b.claimants) {
		t.Fatalf("%d keys indexed for %d claimants", len(b.index), len(b.claimants))
	}
	wins := make([]int, len(b.claimants))
	for i, cl := range b.claims {
		wins[cl.who]++
		if !slices.Contains(b.claimants[cl.who].edges, b.claimed[i]) {
			t.Fatalf("edge %d is not on its claimant's edge list", b.claimed[i])
		}
	}
	for n, c := range b.claimants {
		if b.index[c.key] != int32(n) {
			t.Fatalf("claimant %d is indexed as %d", n, b.index[c.key])
		}
		if c.wins != wins[n] {
			t.Fatalf("claimant %d counts %d wins, holds %d edges", n, c.wins, wins[n])
		}
		if c.wins == 0 && (c.edges != nil || c.restored != nil) {
			t.Fatalf("claimant %d holds nothing but keeps %d edges and %d restored entries", n, len(c.edges), len(c.restored))
		}
		if !slices.IsSorted(c.workers) || len(slices.Compact(slices.Clone(c.workers))) != len(c.workers) {
			t.Fatalf("claimant %d binds workers %v", n, c.workers)
		}
	}
}

// claimModel is the broker's favored competition as it was kept before the
// claim table numbered its claimants — five maps keyed by edge and by content
// key, restated from that algorithm — beside its own virgin map, corpus and
// notices: the reference TestBrokerClaimTableMatchesMapModel holds the
// broker to.
type claimModel struct {
	virgin     coverage.Virgin
	topRated   map[uint32]topClaim
	claimEdges map[string][]uint32
	claimWins  map[string]int
	// claimants indexes corpus entries a resume restored, by content key.
	claimants    map[string][]int
	claimWorkers map[string]map[int]struct{}
	corpus       []modelEntry
	notices      [][]notice
	// seen counts the rarer events, so the test can tell that its sequences
	// reached them.
	seen struct{ notices, demoted, merged, staleBound int }
}

// modelEntry is one corpus entry as the model sees it.
type modelEntry struct {
	key       string
	globalFav bool
	dominated bool
}

func newClaimModel(workers int) *claimModel {
	return &claimModel{
		topRated:     make(map[uint32]topClaim),
		claimEdges:   make(map[string][]uint32),
		claimWins:    make(map[string]int),
		claimants:    make(map[string][]int),
		claimWorkers: make(map[string]map[int]struct{}),
		notices:      make([][]notice, workers),
	}
}

// exchange is broker.exchange's claim accounting: it returns the verdicts,
// the corpus entries the delta added and worker id's notices.
func (m *claimModel) exchange(id int, d epochDelta) (won []bool, added []modelEntry, notes []notice) {
	won = make([]bool, len(d.pubs))
	fresh := make([]bool, len(d.pubs))
	for i, p := range d.pubs {
		fresh[i], _ = m.virgin.MergeBuckets(p.cov)
		won[i] = m.compete(p.key, p.fav, p.cov, fresh[i])
	}
	m.virgin.MergeMasked(d.virginDelta)
	for _, r := range d.retrims {
		m.transferClaims(r)
	}
	for pass := 0; pass < 2; pass++ {
		for i, p := range d.pubs {
			if gf := m.claimWins[p.key] > 0; fresh[i] && gf == (pass == 0) {
				added = append(added, modelEntry{key: p.key, globalFav: gf})
			}
		}
	}
	m.corpus = append(m.corpus, added...)
	for i, p := range d.pubs {
		if won[i] {
			if m.claimWins[p.key] == 0 {
				m.seen.staleBound++ // displaced later in its own delta
			}
			ws := m.claimWorkers[p.key]
			if ws == nil {
				ws = make(map[int]struct{})
				m.claimWorkers[p.key] = ws
			}
			ws[id] = struct{}{}
		}
	}
	notes, m.notices[id] = m.notices[id], nil
	m.seen.notices += len(notes)
	return won, added, notes
}

func (m *claimModel) compete(key string, fav int64, hits []coverage.BucketHit, displace bool) (won bool) {
	for _, h := range hits {
		if h.Bucket == 0 || h.Index >= coverage.MapSize {
			continue
		}
		cur, ok := m.topRated[h.Index]
		if ok && cur.key == key {
			m.topRated[h.Index] = topClaim{fav: fav, key: key}
			won = true
			continue
		}
		if ok && (!displace || cur.fav <= fav) {
			continue
		}
		if ok {
			m.release(cur.key)
		}
		m.topRated[h.Index] = topClaim{fav: fav, key: key}
		m.claimEdges[key] = append(m.claimEdges[key], h.Index)
		m.claimWins[key]++
		won = true
	}
	return won
}

func (m *claimModel) release(key string) {
	if m.claimWins[key]--; m.claimWins[key] > 0 {
		return
	}
	delete(m.claimWins, key)
	for _, i := range m.claimants[key] {
		m.corpus[i].dominated = true
		m.seen.demoted++
	}
	delete(m.claimants, key)
	for _, wid := range slices.Sorted(maps.Keys(m.claimWorkers[key])) {
		m.notices[wid] = append(m.notices[wid], notice{key: key})
	}
	delete(m.claimWorkers, key)
}

func (m *claimModel) transferClaims(r retrimDelta) {
	for _, idx := range m.claimEdges[r.oldKey] {
		if m.topRated[idx].key != r.oldKey {
			continue
		}
		m.topRated[idx] = topClaim{fav: r.fav, key: r.newKey}
		if r.oldKey != r.newKey {
			m.claimEdges[r.newKey] = append(m.claimEdges[r.newKey], idx)
		}
	}
	if r.oldKey == r.newKey {
		return
	}
	delete(m.claimEdges, r.oldKey)
	n := m.claimWins[r.oldKey]
	if n == 0 {
		return
	}
	delete(m.claimWins, r.oldKey)
	if m.claimWins[r.newKey] > 0 {
		m.seen.merged++
	}
	m.claimWins[r.newKey] += n
	m.claimants[r.newKey] = append(m.claimants[r.newKey], m.claimants[r.oldKey]...)
	delete(m.claimants, r.oldKey)
	if ws := m.claimWorkers[r.oldKey]; ws != nil {
		if m.claimWorkers[r.newKey] == nil {
			m.claimWorkers[r.newKey] = make(map[int]struct{})
		}
		maps.Copy(m.claimWorkers[r.newKey], ws)
		delete(m.claimWorkers, r.oldKey)
	}
}

// resume is what a resume restored of the maps: the claims, their counts,
// each key's edges ascending and the corpus entries carrying a claimant's
// input; no worker bindings and no notices.
func (m *claimModel) resume() {
	m.claimEdges, m.claimWins = make(map[string][]uint32), make(map[string]int)
	m.claimants, m.claimWorkers = make(map[string][]int), make(map[string]map[int]struct{})
	for _, idx := range slices.Sorted(maps.Keys(m.topRated)) {
		k := m.topRated[idx].key
		m.claimEdges[k] = append(m.claimEdges[k], idx)
		m.claimWins[k]++
	}
	for i, e := range m.corpus {
		if m.claimWins[e.key] > 0 {
			m.claimants[e.key] = append(m.claimants[e.key], i)
		}
	}
	for i := range m.notices {
		m.notices[i] = nil
	}
}

// sameClaims fails t unless broker b and model m hold the same claims, win
// counts, worker bindings and corpus.
func sameClaims(t *testing.T, b *broker, m *claimModel) {
	t.Helper()
	checkClaimTable(t, b)
	if len(b.claimed) != len(m.topRated) {
		t.Fatalf("the broker claims %d edges, the model %d", len(b.claimed), len(m.topRated))
	}
	for idx, want := range m.topRated {
		if got := b.claimOn(idx); got != want {
			t.Fatalf("edge %d: the broker's claim costs %d under key %x, the model's %d under %x", idx, got.fav, got.key, want.fav, want.key)
		}
	}
	for _, c := range b.claimants {
		if c.wins != m.claimWins[c.key] {
			t.Fatalf("the broker counts %d wins for key %x, the model %d", c.wins, c.key, m.claimWins[c.key])
		}
		if want := slices.Sorted(maps.Keys(m.claimWorkers[c.key])); !slices.Equal(c.workers, want) {
			t.Fatalf("the broker binds workers %v to key %x, the model %v", c.workers, c.key, want)
		}
	}
	for k, ws := range m.claimWorkers {
		if _, ok := b.index[k]; !ok && len(ws) > 0 {
			t.Fatalf("the model binds workers %v to key %x, which the broker has no claimant for", ws, k)
		}
	}
	if len(b.corpus) != len(m.corpus) {
		t.Fatalf("the broker's corpus holds %d entries, the model's %d", len(b.corpus), len(m.corpus))
	}
	for i, be := range b.corpus {
		got := modelEntry{key: be.Entry.Key(), globalFav: be.GlobalFav, dominated: be.Entry.GloballyDominated}
		if got != m.corpus[i] {
			t.Fatalf("corpus entry %d: the broker's key %x, global fav %v, dominated %v; the model's %x, %v, %v", i,
				got.key, got.globalFav, got.dominated, m.corpus[i].key, m.corpus[i].globalFav, m.corpus[i].dominated)
		}
	}
}

// claimRig draws random exchanges over a small pool of inputs and edges, so
// that publications collide: fresh and duplicate publications, copies of
// earlier ones, displacements and retrims onto the same key, another pool
// key or a key nobody used yet.
type claimRig struct {
	rng     *rand.Rand
	workers int
	span    int // edges drawn: 0 to span-1; each segment adds a few
	pool    []*spec.Input
	keys    []string
	pubs    []pubDelta // every publication so far, for copies
	trimmed []string   // every key published or trimmed to so far, for retrims
}

func newClaimRig(seed int64) *claimRig {
	r := &claimRig{rng: rand.New(rand.NewSource(seed)), span: 48}
	r.workers = 2 + r.rng.Intn(3)
	for i := range 24 {
		in := spec.NewInput(spec.Op{Node: 1, Data: []byte{byte(i), byte(seed)}})
		r.pool, r.keys = append(r.pool, in), append(r.keys, core.InputKey(in))
	}
	return r
}

// hits draws a few distinct edges below span, ascending, with now and then a
// zero bucket or an edge beyond the map.
func (r *claimRig) hits() []coverage.BucketHit {
	idx := make([]uint32, 1+r.rng.Intn(3))
	for i := range idx {
		idx[i] = uint32(r.rng.Intn(r.span))
	}
	slices.Sort(idx)
	var hs []coverage.BucketHit
	for _, e := range slices.Compact(idx) {
		hs = append(hs, coverage.BucketHit{Index: e, Bucket: byte(1 << r.rng.Intn(3))})
	}
	switch r.rng.Intn(12) {
	case 0:
		hs[0].Bucket = 0
	case 1:
		hs = append(hs, coverage.BucketHit{Index: coverage.MapSize + 3, Bucket: 1})
	}
	return hs
}

func (r *claimRig) delta() epochDelta {
	var d epochDelta
	for range r.rng.Intn(4) {
		var p pubDelta
		if len(r.pubs) > 0 && r.rng.Intn(3) == 0 { // another live copy of an earlier publication
			p = r.pubs[r.rng.Intn(len(r.pubs))]
		} else {
			k := r.rng.Intn(len(r.pool))
			p = pubDelta{key: r.keys[k], cov: r.hits(), input: r.pool[k]}
		}
		p.fav, p.favored = 1+r.rng.Int63n(60), r.rng.Intn(2) == 0
		p.entry = &core.QueueEntry{Input: p.input, Cov: p.cov, ExecTime: 1000, Size: int(p.fav)}
		d.pubs = append(d.pubs, p)
		r.pubs, r.trimmed = append(r.pubs, p), append(r.trimmed, p.key)
	}
	for len(r.trimmed) > 0 && r.rng.Intn(3) == 0 {
		rt := retrimDelta{oldKey: r.trimmed[r.rng.Intn(len(r.trimmed))], fav: 1 + r.rng.Int63n(60)}
		switch r.rng.Intn(3) {
		case 0:
			rt.newKey = rt.oldKey
		case 1:
			rt.newKey = r.keys[r.rng.Intn(len(r.keys))]
		default:
			rt.newKey = string([]byte{'t', byte(r.rng.Intn(256)), byte(len(r.pubs))})
		}
		d.retrims, r.trimmed = append(d.retrims, rt), append(r.trimmed, rt.newKey)
	}
	if r.rng.Intn(5) == 0 {
		d.virginDelta = []coverage.BucketHit{{Index: uint32(r.rng.Intn(r.span)), Bucket: byte(1 << r.rng.Intn(3))}}
	}
	return d
}

// roundTrip checkpoints b's claims and corpus (every input inline) and
// resumes them, as CheckpointTree and ResumeTree do, and requires the resumed
// broker to encode to the same bytes.
func roundTrip(t *testing.T, b *broker, workers int) *broker {
	t.Helper()
	var w guest.StateWriter
	b.encode(&w, holders{})
	raw := w.Bytes()
	q, _ := indexQueues(store.Tree{}, workers) // a tree with no queue files indexes without fault
	res, _, err := decodeBroker(raw, q)
	if err != nil {
		t.Fatal(err)
	}
	virgin, err := b.virgin.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.virgin.UnmarshalBinary(virgin); err != nil {
		t.Fatal(err)
	}
	var again guest.StateWriter
	res.encode(&again, holders{})
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("the resumed broker does not encode to the broker.bin it was resumed from")
	}
	return res
}

// TestBrokerClaimTableMatchesMapModel is the claim table's refinement proof
// obligation: on seeded random exchange sequences of two to four workers —
// fresh and duplicate publications, displacements, retrims (onto the same
// key, another input's and a new one) and virgin deltas — the broker decides
// exactly what the map-keyed algorithm it replaced decides: the same won
// verdicts, corpus entries with the same GlobalFav, the same notices in the
// same order, the same demotions of restored entries, and the same claims,
// counts and bindings after every exchange and after every checkpoint and
// resume.
func TestBrokerClaimTableMatchesMapModel(t *testing.T) {
	var seen [4]int
	for seed := int64(1); seed <= 60; seed++ {
		r := newClaimRig(seed)
		b, m := newBroker(), newClaimModel(r.workers)
		b.initWorkers(r.workers)
		for segment := 0; segment < 4; segment++ {
			if segment > 0 {
				b = roundTrip(t, b, r.workers)
				m.resume()
				sameClaims(t, b, m)
				r.span += 12 // new edges to find, beside the restored claims
			}
			for step := 0; step < 40; step++ {
				id, d := r.rng.Intn(r.workers), r.delta()
				before := len(b.corpus)
				won, _, notes, _, _ := b.exchange(id, d)
				wantWon, added, wantNotes := m.exchange(id, d)
				if !slices.Equal(won, wantWon) {
					t.Fatalf("seed %d, segment %d, step %d: won %v, the model %v", seed, segment, step, won, wantWon)
				}
				if len(b.corpus)-before != len(added) {
					t.Fatalf("seed %d, segment %d, step %d: %d entries accepted, the model %d", seed, segment, step, len(b.corpus)-before, len(added))
				}
				if !slices.Equal(notes, wantNotes) {
					t.Fatalf("seed %d, segment %d, step %d: worker %d noticed %d keys, the model %d", seed, segment, step, id, len(notes), len(wantNotes))
				}
				sameClaims(t, b, m)
			}
		}
		for i, n := range []int{m.seen.notices, m.seen.demoted, m.seen.merged, m.seen.staleBound} {
			seen[i] += n
		}
	}
	t.Logf("%d notices, %d restored entries demoted, %d retrims onto a key holding claims, %d workers bound to a key displaced in the same delta", seen[0], seen[1], seen[2], seen[3])
	if slices.Contains(seen[:], 0) {
		t.Fatal("the sequences never reached one of those (test premise broken)")
	}
}
