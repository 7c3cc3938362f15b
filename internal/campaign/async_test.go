package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
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

// Async mode trades determinism for barrier-free scaling but must not
// trade away coverage: at equal virtual time, an async campaign reaches at
// least 95% of the lockstep campaign's edges. Property-tested over seeds
// and both ablation targets.
func TestAsyncReachesLockstepCoverage(t *testing.T) {
	for _, target := range []string{"tinydtls", "dnsmasq"} {
		for seed := int64(1); seed <= 3; seed++ {
			lc := testCfg(3, seed)
			lc.Target = target
			lock := run(t, lc, 2*time.Second)

			ac := asyncCfg(3, seed)
			ac.Target = target
			async := run(t, ac, 2*time.Second)

			want := lock.Coverage() * 95 / 100
			if async.Coverage() < want {
				t.Errorf("%s seed %d: async coverage %d < 95%% of lockstep %d",
					target, seed, async.Coverage(), lock.Coverage())
			}
			if async.CorpusSize() == 0 {
				t.Errorf("%s seed %d: async broker accepted nothing", target, seed)
			}
		}
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
	if st.ShardAcquisitions != st.Epochs {
		t.Fatalf("%d exchanges took the broker lock %d times, want once each", st.Epochs, st.ShardAcquisitions)
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

// The headline scaling property: a deliberately slowed worker must not
// reduce the other workers' virtual time per wall-second. Worker 0 parks
// in the epoch hook after its first exchange while the rest run to their
// deadlines; if any barrier remained, the fast workers could never finish
// while worker 0 is parked.
func TestAsyncSlowWorkerDoesNotStallOthers(t *testing.T) {
	const d = 2 * time.Second
	cfg := asyncCfg(3, 5)
	parked := make(chan struct{})
	release := make(chan struct{})
	cfg.epochHook = func(worker, epoch int) {
		if worker == 0 && epoch == 1 {
			close(parked)
			<-release
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.RunFor(d) }()

	<-parked
	// With worker 0 parked mid-campaign, workers 1 and 2 must still reach
	// their full virtual-time deadlines (observed via the elapsed each
	// reported to the broker at its final exchange).
	fastDone := func() bool {
		return c.broker.reportedElapsedFor(1) >= d && c.broker.reportedElapsedFor(2) >= d
	}
	deadline := time.Now().Add(30 * time.Second)
	for !fastDone() {
		if time.Now().After(deadline) {
			t.Fatalf("fast workers stalled behind the parked worker: reported %v / %v",
				c.broker.reportedElapsedFor(1), c.broker.reportedElapsedFor(2))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if el := c.broker.reportedElapsedFor(0); el >= d {
		t.Fatalf("parked worker reported full elapsed %v — the hook did not park it", el)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// After release, everyone finished.
	for _, ws := range c.PerWorker() {
		if ws.Execs == 0 {
			t.Fatalf("worker %d never executed", ws.ID)
		}
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
		if res.SyncMode() != SyncAsync {
			t.Fatalf("%s: resumed mode %v, want async", url, res.SyncMode())
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
	if err := res.syncWorker(res.workers[0]); err != nil {
		t.Fatal(err)
	}
	if got := len(res.broker.pending[0]); got != 0 {
		t.Fatalf("pending imports not drained by worker 0's exchange: %d left", got)
	}
}

// Stop lands async campaigns on a checkpointable boundary: all workers
// quiesce after their in-flight epoch and the broker holds their final
// publications.
func TestAsyncStopQuiesces(t *testing.T) {
	cfg := asyncCfg(3, 6)
	var c *Campaign
	cfg.epochHook = func(worker, epoch int) { c.Stop() }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Stopped() {
		t.Fatal("not stopped")
	}
	// The campaign must be checkpointable right away.
	if _, err := c.CheckpointTree(); err != nil {
		t.Fatal(err)
	}
	// Stop was honored long before the 10s budget.
	if c.Elapsed() >= 10*time.Second {
		t.Fatalf("stop ignored: elapsed %v", c.Elapsed())
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

// Every exchange is atomic: the broker holds its lock for the whole call,
// so two workers exchanging at the same time leave the broker exactly as
// one of the serial orders of their whole exchanges would. Each worker here
// submits three deltas over overlapping edges — among them a displacement
// of the other worker's claim, a publication that is fresh or a duplicate
// depending on what came first, a trim's claim transfer and one crash both
// workers find — and the concurrent run's broker.bin and virgin.bin bytes,
// and everything each worker got back, must equal those of one of the 20
// interleavings of the two sequences, each replayed on a fresh broker. The
// race detector watches the concurrent half.
func TestAsyncExchangesAreSerializable(t *testing.T) {
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
		return []core.Crash{{Kind: "segfault", Msg: "shared bug", FoundAt: at, Input: spec.NewInput(spec.Op{Data: []byte("crash")})}}
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

	// exchange runs worker w's k-th delta and renders what it got back.
	exchange := func(b *broker, w, k int) string {
		won, imports, notes, _, _ := b.exchange(w, deltas[w][k])
		keys := make([]string, len(notes))
		for i, n := range notes {
			keys[i] = fmt.Sprintf("%x", n.key)
		}
		return fmt.Sprintf("%v %x %v", won, itemKeys(imports), keys)
	}
	outcome := func(b *broker, got [2][]string) string {
		var w guest.StateWriter
		b.encode(&w)
		virgin, err := b.virgin.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x\n%x\n%q", w.Bytes(), virgin, got)
	}
	fresh := func() *broker {
		b := newBroker()
		b.initWorkers(2)
		return b
	}

	serial := make(map[string][]int)
	for mask := range 1 << 6 {
		if bits.OnesCount(uint(mask)) != 3 {
			continue
		}
		b, order := fresh(), make([]int, 6)
		var got [2][]string
		for pos := range order {
			w := mask >> pos & 1
			order[pos] = w
			got[w] = append(got[w], exchange(b, w, len(got[w])))
		}
		serial[outcome(b, got)] = order
	}
	if len(serial) < 10 {
		t.Fatalf("only %d distinct outcomes over the 20 serial orders: the deltas do not interact", len(serial))
	}

	for run := range 20 {
		b := fresh()
		var got [2][]string
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := range 3 {
					got[w] = append(got[w], exchange(b, w, k))
					runtime.Gosched()
				}
			}()
		}
		close(start)
		wg.Wait()
		if _, ok := serial[outcome(b, got)]; !ok {
			t.Fatalf("run %d: the concurrent exchanges left a broker no serial order of them leaves", run)
		}
	}
}
