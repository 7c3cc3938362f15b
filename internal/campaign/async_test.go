package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/store"
)

func asyncCfg(workers int, seed int64) Config {
	cfg := testCfg(workers, seed)
	cfg.SyncMode = SyncAsync
	return cfg
}

// generatedOrder is a seeded exchange order fixed in advance: each exchange
// goes to a uniform pick among the workers with an exchange still to make,
// drawn once the previous pick has exchanged and then waited for, so the
// order depends on the seed and the campaign, never on timing.
func generatedOrder(seed int64) exchangeOrder {
	rng := rand.New(rand.NewSource(seed))
	pick := -1
	return func(ready, live []int) int {
		if pick < 0 {
			pick = live[rng.Intn(len(live))]
		}
		if !slices.Contains(ready, pick) {
			return -1
		}
		id := pick
		pick = -1
		return id
	}
}

// replayOrder follows a recorded exchange log (Campaign.exchanges). Past
// its end it goes first come, first served, so a replay that diverges into
// more exchanges than the log holds shows in its own log, not as a panic.
func replayOrder(log []uint16) exchangeOrder {
	return func(ready, _ []int) int {
		if len(log) == 0 {
			return ready[0]
		}
		if !slices.Contains(ready, int(log[0])) {
			return -1
		}
		id := int(log[0])
		log = log[1:]
		return id
	}
}

// runOrdered runs cfg for d under order on worker goroutines.
func runOrdered(t *testing.T, cfg Config, d time.Duration, order exchangeOrder) *Campaign {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.order = order
	if err := c.RunFor(d); err != nil {
		t.Fatal(err)
	}
	return c
}

// asyncOrders is how many generated exchange orders each async property
// runs a cell under: order k is generatedOrder(k), the same in every cell.
const asyncOrders = 11

// asyncCell is one target and seed of the async properties: the global
// edges of its lockstep campaign, and what the same campaign in async mode
// ended with under each generated order.
type asyncCell struct {
	target string
	seed   int64
	lock   int
	async  []asyncRun
}

// asyncRun is what the async properties read of one finished campaign.
type asyncRun struct {
	edges, least, corpus int // least: the smallest worker's own edges
	dropped              uint64
}

// cachedAsyncCells holds the cells once run: every campaign in them is a
// function of its seed and order, so the properties share one run of each.
var cachedAsyncCells []asyncCell

// asyncCells runs the cells the async properties judge: both ablation
// targets, seeds 1-3, 3 workers for 2 virtual seconds.
func asyncCells(t *testing.T) []asyncCell {
	if cachedAsyncCells != nil {
		return cachedAsyncCells
	}
	var cells []asyncCell
	for _, target := range []string{"tinydtls", "dnsmasq"} {
		for seed := int64(1); seed <= 3; seed++ {
			cell := asyncCell{target: target, seed: seed}
			lc := testCfg(3, seed)
			lc.Target = target
			cell.lock = run(t, lc, 2*time.Second).Coverage()
			ac := asyncCfg(3, seed)
			ac.Target = target
			for k := range int64(asyncOrders) {
				c := runOrdered(t, ac, 2*time.Second, generatedOrder(k+1))
				r := asyncRun{edges: c.Coverage(), least: c.Coverage(), corpus: c.CorpusSize(), dropped: c.SyncStats().ImportsDropped}
				for _, ws := range c.PerWorker() {
					r.least = min(r.least, ws.Coverage)
				}
				cell.async = append(cell.async, r)
			}
			cells = append(cells, cell)
		}
	}
	cachedAsyncCells = cells
	return cells
}

// median returns the middle of an odd number of values.
func median(vs []int) int {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// Async mode trades the barrier for scaling but must not trade away
// coverage: at equal virtual time, the median async campaign over the
// generated exchange orders reaches at least 95% of the lockstep campaign's
// edges, on both ablation targets and three seeds. Every order below the
// bar is logged.
func TestAsyncReachesLockstepCoverage(t *testing.T) {
	for _, cell := range asyncCells(t) {
		want := cell.lock * 95 / 100
		covs := make([]int, len(cell.async))
		for k, r := range cell.async {
			covs[k] = r.edges
			if covs[k] < want {
				t.Logf("%s seed %d order %d: async coverage %d < 95%% of lockstep %d (%d imports dropped)",
					cell.target, cell.seed, k+1, covs[k], cell.lock, r.dropped)
			}
			if r.corpus == 0 {
				t.Errorf("%s seed %d order %d: async broker accepted nothing", cell.target, cell.seed, k+1)
			}
		}
		got := median(covs)
		t.Logf("%s seed %d: lockstep %d, median async %d (all: %v)", cell.target, cell.seed, cell.lock, got, covs)
		if got < want {
			t.Errorf("%s seed %d: median async coverage %d over %d orders < 95%% of lockstep %d",
				cell.target, cell.seed, got, len(covs), cell.lock)
		}
	}
}

// Sharing is what makes async workers a campaign rather than N solo runs:
// under the same generated orders, the median of the smallest worker's
// share of the global edges is at least 90%. Global edges alone do not
// show sharing — with every import discarded they still reach 95% of
// lockstep — but each worker's own map does.
func TestAsyncWorkersShareCoverage(t *testing.T) {
	for _, cell := range asyncCells(t) {
		shares := make([]int, len(cell.async))
		for k, r := range cell.async {
			shares[k] = r.least * 1000 / r.edges
		}
		got := median(shares)
		t.Logf("%s seed %d: median smallest worker share %d‰ (all: %v)", cell.target, cell.seed, got, shares)
		if got < 900 {
			t.Errorf("%s seed %d: median smallest worker share %d‰ < 900‰ of global edges", cell.target, cell.seed, got)
		}
	}
}

// A live async campaign is a function of its exchange log: replaying the
// log a campaign on worker goroutines recorded, on a fresh campaign, rebuilds
// its whole checkpoint byte for byte, with 3 workers and with 16.
func TestAsyncReplayMatchesLiveRun(t *testing.T) {
	for _, workers := range []int{3, 16} {
		live := run(t, asyncCfg(workers, 31), 2*time.Second)
		log := slices.Clone(live.exchanges)
		replayed := runOrdered(t, asyncCfg(workers, 31), 2*time.Second, replayOrder(log))
		if !slices.Equal(replayed.exchanges, log) {
			t.Fatalf("%d workers: the replay made exchanges %v, the live run %v", workers, replayed.exchanges, log)
		}
		want, err := live.CheckpointTree()
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayed.CheckpointTree()
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, fmt.Sprintf("%d workers, %d exchanges", workers, len(log)), want, got)
	}
}

// Async workers run on their own clocks: epochs happen, imports flow, and
// the aggregated stats stay coherent after RunFor returns.
func TestAsyncEpochsAndRedistribution(t *testing.T) {
	c := run(t, asyncCfg(3, 3), 3*time.Second)
	st := c.SyncStats()
	if st.Mode != SyncAsync {
		t.Fatalf("mode = %v", st.Mode)
	}
	// 3 workers x 3s at 500ms epochs: 6 full epochs plus a final flush
	// each.
	if st.Epochs < 12 {
		t.Fatalf("only %d epoch exchanges", st.Epochs)
	}
	if c.CorpusSize() == 0 || c.Coverage() == 0 {
		t.Fatalf("corpus %d, coverage %d", c.CorpusSize(), c.Coverage())
	}
	// Redistribution must actually happen: every worker's local coverage
	// should exceed what a solo worker discovers (same bar the lockstep
	// sharing test sets).
	for _, ws := range c.PerWorker() {
		if ws.Coverage == 0 {
			t.Fatalf("worker %d has no local coverage", ws.ID)
		}
	}
	if c.Deduped() == 0 {
		t.Fatal("no duplicate publications deduped — workers are not importing each other's entries")
	}
}

// The headline scaling property: a worker that falls behind does not hold
// the others back. Worker 0's second step is held, on its own goroutine,
// until the last of workers 1 and 2 comes to its final flush; a driver that
// waited for a running step before it exchanged the others never gets there.
func TestAsyncSlowWorkerDoesNotStallOthers(t *testing.T) {
	const d = 2 * time.Second
	c, err := New(asyncCfg(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var stalled atomic.Bool
	c.beforeStep = func(w *worker) {
		if w.id == 0 && w.epoch == 1 {
			select {
			case <-release:
			case <-time.After(time.Minute):
				stalled.Store(true)
			}
		}
	}
	var whileHeld []time.Duration
	c.order = func(ready, live []int) int {
		id := ready[0]
		// Only worker 0 and id are left, and id reached its deadline at its
		// last exchange: this exchange is id's final flush.
		if whileHeld == nil && len(live) == 2 && id != 0 && c.broker.reported[id] >= d {
			whileHeld = slices.Clone(c.broker.reported)
			close(release)
		}
		return id
	}
	if err := c.RunFor(d); err != nil {
		t.Fatal(err)
	}
	if stalled.Load() {
		t.Fatalf("workers 1 and 2 stalled behind worker 0's held step (reported %v)", whileHeld)
	}
	if r := whileHeld; len(r) != 3 || r[0] >= d || r[1] < d || r[2] < d {
		t.Fatalf("with worker 0's step held, the workers reported %v", r)
	}
	if c.broker.reported[0] < d {
		t.Fatalf("worker 0 ended at %v, short of %v", c.broker.reported[0], d)
	}
}

// Async checkpoint/resume round-trips through both store backends: the
// manifest declares the current version and the sync mode, and the resumed
// campaign keeps async semantics and its coverage.
func TestAsyncCheckpointResumeRoundTrip(t *testing.T) {
	for _, url := range []string{"mem://async-roundtrip-" + t.Name(), "dir://" + t.TempDir()} {
		st, err := store.Open(url)
		if err != nil {
			t.Fatal(err)
		}
		orig := run(t, asyncCfg(2, 9), 2*time.Second)
		if err := orig.CheckpointTo(st, "ckpt"); err != nil {
			t.Fatalf("%s: %v", url, err)
		}

		tree, err := st.GetTree("ckpt")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(tree["manifest.json"], &m); err != nil {
			t.Fatal(err)
		}
		if v := m["version"].(float64); v != manifestVersion {
			t.Fatalf("%s: async manifest version %v, want %d", url, v, manifestVersion)
		}
		if m["sync_mode"] != "async" {
			t.Fatalf("%s: manifest sync_mode = %v", url, m["sync_mode"])
		}

		res, err := ResumeFrom(st, "ckpt")
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if res.Config().SyncMode != SyncAsync {
			t.Fatalf("%s: resumed mode %v, want async", url, res.Config().SyncMode)
		}
		if res.Coverage() != orig.Coverage() {
			t.Fatalf("%s: resumed coverage %d, want %d", url, res.Coverage(), orig.Coverage())
		}
		if res.CorpusSize() != orig.CorpusSize() {
			t.Fatalf("%s: resumed corpus %d, want %d", url, res.CorpusSize(), orig.CorpusSize())
		}
		if err := res.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if res.Coverage() < orig.Coverage() {
			t.Fatalf("%s: coverage regressed across resume: %d < %d", url, res.Coverage(), orig.Coverage())
		}
	}
}

// An async campaign resumed from a checkpoint with pending imports
// delivers them: hand-plant a pending entry and verify the receiving
// worker re-executes it on its first epoch.
func TestAsyncResumeRestoresPendingImports(t *testing.T) {
	orig := run(t, asyncCfg(2, 21), 2*time.Second)
	tree, err := orig.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	// Graft a pending import for worker 0 into broker.bin: the first corpus
	// entry's input (worker 0 may or may not hold it — the import path
	// dedups either way; what must survive is the queue itself).
	base := -1
	tree = editBroker(t, tree, func(b *broker) {
		if len(b.corpus) == 0 {
			t.Fatal("no corpus to graft from")
		}
		base = len(b.pending[0])
		b.pending[0] = append(b.pending[0], importItem{input: b.corpus[0].Entry.Input, globalFav: true})
	})

	res, err := ResumeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.broker.pending[0]); got != base+1 {
		t.Fatalf("restored pending queue has %d items, want %d", got, base+1)
	}
	// One exchange on worker 0 alone (no peers running to refill the
	// queue) must pull and re-execute everything that was parked.
	w := res.workers[0]
	if err := w.importAll(w.exchange(res.broker, w.buildDelta(false))); err != nil {
		t.Fatal(err)
	}
	if got := len(res.broker.pending[0]); got != 0 {
		t.Fatalf("pending imports not drained by worker 0's exchange: %d left", got)
	}
}

// Fair termination: Stop called at any exchange position of a generated
// 3-worker order ends RunFor with one more exchange per worker still
// running, its final flush, and leaves a campaign that checkpoints and
// resumes with its coverage.
func TestAsyncStopQuiesces(t *testing.T) {
	cfg := asyncCfg(3, 6)
	const d, seed = 2 * time.Second, 7
	whole := len(runOrdered(t, cfg, d, generatedOrder(seed)).exchanges)
	for at := range whole {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		order, picked, flushes := generatedOrder(seed), 0, 0
		c.order = func(ready, live []int) int {
			id := order(ready, live)
			if id >= 0 {
				if picked == at {
					c.Stop()
					flushes = len(live)
				}
				picked++
			}
			return id
		}
		if err := c.RunFor(d); err != nil {
			t.Fatal(err)
		}
		if after := slices.Sorted(slices.Values(c.exchanges[at:])); len(after) != flushes || len(slices.Compact(after)) != flushes {
			t.Fatalf("stop at exchange %d of %d: %d workers running, then exchanges %v", at, whole, flushes, c.exchanges[at:])
		}
		tree, err := c.CheckpointTree()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ResumeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage() != c.Coverage() {
			t.Fatalf("stop at exchange %d: resumed coverage %d, want %d", at, res.Coverage(), c.Coverage())
		}
	}
}

// A publication is the owner's queued input shared by pointer: receivers
// read it on their own goroutines, epochs later, while the owner goes on
// using it — as the parent of children, as the input a trim starts from.
// Here worker 0 does both to everything it published while this goroutine
// plays the receiver, importing the same inputs into worker 1 and
// re-reading their bytes: they must never change, and under the race
// detector no write may touch what a receiver reads.
func TestSharedPublicationsOutliveTheOwnersMutations(t *testing.T) {
	c := run(t, asyncCfg(2, 11), time.Second)
	owner, receiver := c.workers[0].fz, c.workers[1].fz
	type published struct {
		in   *spec.Input
		want []byte
	}
	var pubs []published
	for _, be := range c.broker.corpus {
		if be.Worker == 0 {
			pubs = append(pubs, published{be.Entry.Input, spec.Serialize(be.Entry.Input)})
		}
	}
	if len(pubs) == 0 {
		t.Fatal("worker 0 published nothing")
	}
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 20000; round++ {
			p := pubs[round%len(pubs)]
			owner.Mut.MutateSuffix(p.in, round%(len(p.in.Ops)+1))
			if round%1000 == 0 {
				if _, err := owner.Trim(p.in); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for i, owning := 0, true; owning; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			owning = false
		default:
		}
		p := pubs[i%len(pubs)]
		if _, err := receiver.ImportInput(p.in); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spec.Serialize(p.in), p.want) {
			t.Fatal("a published input changed under its receivers")
		}
	}
	for _, p := range pubs {
		if !bytes.Equal(spec.Serialize(p.in), p.want) {
			t.Fatal("a published input changed under its receivers")
		}
	}
}

// Every exchange is whole when it returns: one driver goroutine makes
// every exchange, so no part of a delta may land at a later call, and no
// pull may miss a publication made before it. Each of two workers submits
// three deltas over overlapping edges — among them a displacement of the
// other worker's claim, a publication that is fresh or a duplicate
// depending on what came first, a trim's claim transfer and one crash both
// workers find — in each of the 20 interleavings of the two sequences.
// Right after every exchange the delta's traces and virgin bits are in the
// virgin map, its crash is listed, each trimmed input's old key holds no
// edge, its fresh publications close the corpus and wait in the other
// worker's queue, and the pull held exactly the other worker's fresh
// publications since this worker's last exchange.
func TestExchangeIsWholeOnReturn(t *testing.T) {
	entry := func(name string, cost int, cov ...coverage.BucketHit) *core.QueueEntry {
		in := spec.NewInput(spec.Op{Data: []byte(name)})
		return &core.QueueEntry{Input: in, ExecTime: time.Duration(cost) * time.Microsecond, Size: cost, Favored: true, Cov: cov}
	}
	pub := func(e *core.QueueEntry) pubDelta {
		return pubDelta{key: e.Key(), fav: e.FavFactor(), favored: e.Favored, cov: e.Cov, input: e.Input, entry: e}
	}
	retrim := func(e *core.QueueEntry, trimmed string, cost int) retrimDelta {
		t := entry(trimmed, cost)
		return retrimDelta{oldKey: e.Key(), newKey: t.Key(), fav: t.FavFactor()}
	}
	crash := func(at time.Duration) []core.Crash {
		return []core.Crash{{CrashError: guest.CrashError{Kind: "segfault", Site: "shared site", Msg: "shared bug"},
			FoundAt: at, Input: spec.NewInput(spec.Op{Data: []byte("crash")})}}
	}
	a0 := entry("a0", 100, hit(1, 1), hit(2, 1), hit(3, 1))
	a1 := entry("a1", 50, hit(2, 1), hit(20, 1), hit(21, 1))
	deltas := [2][3]epochDelta{{
		{pubs: []pubDelta{pub(a0)}, crashes: crash(time.Millisecond), virginDelta: []coverage.BucketHit{hit(10, 3)}},
		// d0 takes edge 21 from a1 if a1 came first, and 20 in either order.
		{pubs: []pubDelta{pub(entry("b0", 10, hit(4, 1), hit(5, 2))), pub(entry("d0", 5, hit(20, 2), hit(21, 1)))}},
		{pubs: []pubDelta{pub(entry("c0", 200, hit(1, 2)))}, retrims: []retrimDelta{retrim(a0, "a0-trimmed", 7)}},
	}, {
		{pubs: []pubDelta{pub(a1)}, crashes: crash(2 * time.Millisecond)},
		// b1 is fresh, and displaces a0 and b0, only if it beats them here.
		{pubs: []pubDelta{pub(entry("b1", 1, hit(1, 1), hit(3, 1), hit(4, 1)))}},
		{pubs: []pubDelta{pub(entry("c1", 3, hit(5, 1), hit(22, 4)))}, retrims: []retrimDelta{retrim(a1, "a1-trimmed", 2)},
			virginDelta: []coverage.BucketHit{hit(23, 1)}},
	}}
	sorted := func(keys []string) []string {
		keys = slices.Clone(keys)
		slices.Sort(keys)
		return keys
	}

	for mask := range 1 << 6 {
		if bits.OnesCount(uint(mask)) != 3 {
			continue
		}
		b := newBroker()
		b.initWorkers(2)
		var next [2]int
		// unpulled[w] holds the keys of the other worker's fresh
		// publications since w's last exchange.
		var unpulled [2][]string
		for pos := range 6 {
			w := mask >> pos & 1
			d := deltas[w][next[w]]
			next[w]++
			at := fmt.Sprintf("order %06b, exchange %d (worker %d)", mask, pos, w)
			seen, corpus := b.virgin, len(b.corpus)
			var fresh []string
			for _, p := range d.pubs {
				if n, _ := seen.MergeBuckets(p.cov); n {
					fresh = append(fresh, p.key)
				}
			}

			_, imports, _, _, _ := b.exchange(w, d)

			if got, want := sorted(itemKeys(imports)), sorted(unpulled[w]); !slices.Equal(got, want) {
				t.Fatalf("%s: pulled %x, want the other worker's fresh publications %x", at, got, want)
			}
			unpulled[w] = nil
			unpulled[1-w] = append(unpulled[1-w], fresh...)
			if got, want := sorted(itemKeys(b.pending[1-w])), sorted(unpulled[1-w]); !slices.Equal(got, want) {
				t.Fatalf("%s: the other worker's queue holds %x, want %x", at, got, want)
			}
			var accepted []string
			for _, be := range b.corpus[corpus:] {
				accepted = append(accepted, be.Entry.Key())
			}
			if got, want := sorted(accepted), sorted(fresh); !slices.Equal(got, want) {
				t.Fatalf("%s: the corpus gained %x, want the fresh publications %x", at, got, want)
			}
			after := b.virgin
			if after.MergeMasked(d.virginDelta) {
				t.Fatalf("%s: the virgin delta is not in the virgin map", at)
			}
			for _, p := range d.pubs {
				if n, _ := after.MergeBuckets(p.cov); n {
					t.Fatalf("%s: publication %x's trace is not in the virgin map", at, p.key)
				}
			}
			for _, cr := range d.crashes {
				if !slices.ContainsFunc(b.Crashes, func(c core.Crash) bool { return c.ID() == cr.ID() }) {
					t.Fatalf("%s: crash %v is not listed", at, cr.ID())
				}
			}
			for _, r := range d.retrims {
				if n := b.wins(r.oldKey); n != 0 {
					t.Fatalf("%s: trimmed input %x still holds %d edges under its old key", at, r.oldKey, n)
				}
			}
		}
	}
}
