package campaign

import (
	"encoding"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/targets"
)

// checkpointDir and resumeDir address a plain checkpoint directory the way
// cmd/nyx-net does: as a tree in the dir:// store of its parent.
func checkpointDir(c *Campaign, dir string) error {
	st, name, err := store.ForDir(dir)
	if err != nil {
		return err
	}
	return c.CheckpointTo(st, name)
}

func resumeDir(dir string) (*Campaign, error) {
	st, name, err := store.ForDir(dir)
	if err != nil {
		return nil, err
	}
	return ResumeFrom(st, name)
}

// loadSchedState decodes worker id's sched.bin from a checkpoint directory.
func loadSchedState(t *testing.T, dir string, id int) ([]core.EntryMeta, *core.PowerMeta) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, workerDir(id), core.SchedStateFile))
	if err != nil {
		t.Fatal(err)
	}
	metas, power, err := core.DecodeSchedState(raw)
	if err != nil {
		t.Fatal(err)
	}
	return metas, power
}

func testCfg(workers int, seed int64) Config {
	return Config{
		Target:       "lightftp",
		Workers:      workers,
		Policy:       core.PolicyAggressive,
		Seed:         seed,
		SyncInterval: 500 * time.Millisecond,
	}
}

func run(t *testing.T, cfg Config, d time.Duration) *Campaign {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(d); err != nil {
		t.Fatal(err)
	}
	return c
}

// A one-worker campaign fuzzes exactly as its fuzzer would alone, and
// exchanges with the broker once per RunFor, when it ends.
func TestCampaignSingleWorkerMatchesFuzzer(t *testing.T) {
	for _, mode := range []SyncMode{SyncLockstep, SyncAsync} {
		cfg := testCfg(1, 1)
		cfg.SyncMode, cfg.Power = mode, core.PowerCoe
		c := run(t, cfg, 2*time.Second)
		if c.Workers() != 1 {
			t.Fatalf("workers = %d", c.Workers())
		}
		w := c.workers[0]
		if c.Coverage() != w.fz.Coverage() {
			t.Fatalf("%v: aggregated coverage %d != worker coverage %d", mode, c.Coverage(), w.fz.Coverage())
		}
		if c.Execs() != w.fz.Execs() {
			t.Fatalf("%v: aggregated execs %d != worker execs %d", mode, c.Execs(), w.fz.Execs())
		}
		if st := c.SyncStats(); st.Epochs != 1 {
			t.Fatalf("%v: %d exchanges in one RunFor, want 1", mode, st.Epochs)
		}

		inst, err := targets.Launch(cfg.Target, targets.LaunchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		alone := core.New(inst.Agent, inst.Spec, core.Options{
			Policy:     cfg.Policy,
			Seeds:      inst.Seeds(),
			Power:      cfg.Power,
			SnapBudget: cfg.SnapBudget,
			Rand:       rand.New(rand.NewSource(deriveSeed(cfg.Seed, 0, 0))),
			Dict:       inst.Info.Dict,
		})
		if err := alone.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if w.fz.Execs() != alone.Execs() || w.fz.Coverage() != alone.Coverage() || len(w.fz.Queue) != len(alone.Queue) {
			t.Fatalf("%v: the worker ran %d execs to %d edges and %d entries, its fuzzer alone %d, %d and %d", mode,
				w.fz.Execs(), w.fz.Coverage(), len(w.fz.Queue), alone.Execs(), alone.Coverage(), len(alone.Queue))
		}
	}
}

// Same master seed ⇒ identical aggregated results; different seed ⇒ the
// campaign actually depends on it.
func TestCampaignDeterministic(t *testing.T) {
	a := run(t, testCfg(3, 7), 2*time.Second)
	b := run(t, testCfg(3, 7), 2*time.Second)
	if a.Coverage() != b.Coverage() {
		t.Fatalf("coverage %d != %d for same seed", a.Coverage(), b.Coverage())
	}
	if a.Execs() != b.Execs() {
		t.Fatalf("execs %d != %d for same seed", a.Execs(), b.Execs())
	}
	if a.CorpusSize() != b.CorpusSize() {
		t.Fatalf("corpus %d != %d for same seed", a.CorpusSize(), b.CorpusSize())
	}
	if len(a.Crashes()) != len(b.Crashes()) {
		t.Fatalf("crashes %d != %d for same seed", len(a.Crashes()), len(b.Crashes()))
	}
	c := run(t, testCfg(3, 8), 2*time.Second)
	if a.Coverage() == c.Coverage() && a.Execs() == c.Execs() {
		t.Fatal("different master seeds produced identical campaigns")
	}
}

// Workers must actually exchange corpus entries: everything globally fresh
// reaches every worker, so each worker's local coverage approaches the
// aggregate, and duplicate publications are dropped.
func TestCampaignSyncSharesCorpus(t *testing.T) {
	c := run(t, testCfg(3, 3), 3*time.Second)
	if c.CorpusSize() == 0 {
		t.Fatal("broker accepted no corpus entries")
	}
	if c.Deduped() == 0 {
		t.Fatal("broker never deduplicated a published entry (sync not exercised)")
	}
	checkClaimTable(t, c.broker)
	global := c.Coverage()
	for _, st := range c.PerWorker() {
		if st.Coverage == 0 {
			t.Fatalf("worker %d found no coverage", st.ID)
		}
		if st.Coverage > global {
			t.Fatalf("worker %d coverage %d exceeds aggregate %d", st.ID, st.Coverage, global)
		}
		// Redistribution should pull every worker close to the global
		// map; with sharing disabled workers sit far apart.
		if st.Coverage*10 < global*8 {
			t.Fatalf("worker %d coverage %d lags aggregate %d by >20%% — corpus sync ineffective",
				st.ID, st.Coverage, global)
		}
	}
}

// The aggregated campaign must dominate any one of its own workers, and
// adding workers for the same per-worker duration must dominate the single
// worker alone (the §5.3 more-cores deployment).
func TestCampaignParallelCoverage(t *testing.T) {
	const dur = 2 * time.Second
	single := run(t, testCfg(1, 1), dur)
	multi := run(t, testCfg(4, 1), dur)

	if multi.Coverage() == 0 {
		t.Fatal("parallel campaign found nothing")
	}
	for _, st := range multi.PerWorker() {
		if st.Coverage > multi.Coverage() {
			t.Fatalf("worker %d exceeds aggregate", st.ID)
		}
	}
	if multi.Coverage() < single.Coverage() {
		t.Fatalf("4 workers x %v found %d edges < 1 worker's %d",
			dur, multi.Coverage(), single.Coverage())
	}
	// Aggregate throughput scales with the worker count (per-worker
	// virtual clocks; require >75% of the ideal line).
	if eps := multi.ExecsPerSecond() / single.ExecsPerSecond(); eps < 3.0 {
		t.Fatalf("4-worker aggregate throughput only %.2fx a single worker's", eps)
	}
}

func TestCampaignCoverageLogMonotone(t *testing.T) {
	c := run(t, testCfg(2, 5), 2*time.Second)
	log := c.CoverageLog()
	if len(log) == 0 {
		t.Fatal("no aggregated coverage log")
	}
	for i := 1; i < len(log); i++ {
		if log[i].Edges < log[i-1].Edges || log[i].T < log[i-1].T {
			t.Fatalf("coverage log not monotone at %d: %+v -> %+v", i, log[i-1], log[i])
		}
	}
	if last := log[len(log)-1].Edges; last != c.Coverage() {
		t.Fatalf("log ends at %d edges, campaign at %d", last, c.Coverage())
	}
}

// Crashes found by several workers must be reported once globally.
func TestCampaignCrashDedupAcrossWorkers(t *testing.T) {
	cfg := testCfg(3, 2)
	cfg.Target = "dnsmasq" // shallow bugs: every worker finds crashes fast
	c := run(t, cfg, 2*time.Second)
	if len(c.Crashes()) == 0 {
		t.Fatal("no crashes found — dedup not exercised")
	}
	workerTotal := 0
	for _, w := range c.workers {
		workerTotal += len(w.fz.Crashes)
	}
	if workerTotal <= len(c.Crashes()) {
		t.Fatalf("workers found %d crashes total, global %d — no cross-worker duplication to dedup",
			workerTotal, len(c.Crashes()))
	}
	seen := make(map[string]int)
	for _, cr := range c.Crashes() {
		seen[cr.Key()]++
	}
	for key, n := range seen {
		if n > 1 {
			t.Fatalf("crash %q reported %d times", key, n)
		}
	}
	// Global crashes are the union of worker findings, deduplicated.
	workerKeys := make(map[string]bool)
	for _, w := range c.workers {
		for _, cr := range w.fz.Crashes {
			workerKeys[cr.Key()] = true
		}
	}
	if len(c.Crashes()) != len(workerKeys) {
		t.Fatalf("global crashes %d != union of worker crashes %d", len(c.Crashes()), len(workerKeys))
	}
}

func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	orig := run(t, testCfg(2, 4), 2*time.Second)
	if err := checkpointDir(orig, dir); err != nil {
		t.Fatal(err)
	}

	res, err := resumeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Global coverage, crashes and the coverage log survive verbatim.
	if res.Coverage() != orig.Coverage() {
		t.Fatalf("resumed coverage %d, want %d", res.Coverage(), orig.Coverage())
	}
	if len(res.Crashes()) != len(orig.Crashes()) {
		t.Fatalf("resumed crashes %d, want %d", len(res.Crashes()), len(orig.Crashes()))
	}
	if len(res.CoverageLog()) != len(orig.CoverageLog()) {
		t.Fatalf("resumed cov log %d points, want %d", len(res.CoverageLog()), len(orig.CoverageLog()))
	}
	if res.CorpusSize() != orig.CorpusSize() {
		t.Fatalf("resumed broker corpus %d entries, want %d", res.CorpusSize(), orig.CorpusSize())
	}
	if res.Rounds() != orig.Rounds() {
		t.Fatalf("resumed rounds %d, want %d", res.Rounds(), orig.Rounds())
	}
	if res.Workers() != orig.Workers() {
		t.Fatalf("resumed workers %d, want %d", res.Workers(), orig.Workers())
	}

	// The continued campaign fuzzes productively from the saved corpus:
	// coverage only grows, and the workers' queues rebuild from disk.
	if err := res.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < orig.Coverage() {
		t.Fatalf("coverage regressed after resume: %d < %d", res.Coverage(), orig.Coverage())
	}
	for _, st := range res.PerWorker() {
		if st.Queue == 0 {
			t.Fatalf("worker %d has an empty queue after resume", st.ID)
		}
	}
	// Re-published corpus entries dedup against the restored global map
	// instead of being treated as new discoveries.
	if res.Deduped() <= orig.Deduped() {
		t.Fatalf("resume did not dedup re-imported corpus (deduped %d -> %d)",
			orig.Deduped(), res.Deduped())
	}
	// The campaign clock continues across the resume: cumulative elapsed
	// grows and the aggregated coverage log stays monotone in time.
	if res.Elapsed() <= orig.Elapsed() {
		t.Fatalf("campaign clock restarted: elapsed %v after resume+run, was %v", res.Elapsed(), orig.Elapsed())
	}
	log := res.CoverageLog()
	for i := 1; i < len(log); i++ {
		if log[i].T < log[i-1].T || log[i].Edges < log[i-1].Edges {
			t.Fatalf("coverage log not monotone across resume at %d: %+v -> %+v", i, log[i-1], log[i])
		}
	}

	// Resuming is itself deterministic.
	res2, err := resumeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res2.Coverage() != res.Coverage() || res2.Execs() != res.Execs() {
		t.Fatalf("resume not deterministic: %d/%d edges, %d/%d execs",
			res2.Coverage(), res.Coverage(), res2.Execs(), res.Execs())
	}

	// Re-checkpointing into the same directory replaces worker state
	// instead of accumulating epochs: the on-disk queues must match the
	// live ones exactly.
	if err := checkpointDir(res, dir); err != nil {
		t.Fatal(err)
	}
	ds, name, err := store.ForDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ds.GetTree(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.PerWorker() {
		queue := map[string][]byte{}
		for k, v := range tree {
			if strings.HasPrefix(k, workerDir(st.ID)+"/queue/") {
				queue[k] = v
			}
		}
		loaded, err := core.DecodeCorpus(queue)
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != st.Queue {
			t.Fatalf("worker %d checkpoint has %d queue files, live queue has %d (stale epoch leftovers?)",
				st.ID, len(loaded), st.Queue)
		}
	}
}

// Checkpoints must persist per-worker scheduler metadata, and a resumed
// worker must re-attach it to the entries that re-queue from the saved
// corpus — so resumed campaigns schedule from restored pick counts and trim
// state instead of rediscovering them. sched.bin entry i belongs to queue
// entry i: after the seed import, entry i carries exactly entry i's metadata.
func TestCheckpointPersistsSchedulerMetadata(t *testing.T) {
	dir := t.TempDir()
	orig := run(t, testCfg(2, 9), 2*time.Second)
	if err := checkpointDir(orig, dir); err != nil {
		t.Fatal(err)
	}
	saved := make([][]core.EntryMeta, len(orig.workers))
	for _, w := range orig.workers {
		metas, _ := loadSchedState(t, dir, w.id)
		if len(metas) != len(w.fz.Queue) {
			t.Fatalf("worker %d checkpoint has %d metadata entries, queue has %d",
				w.id, len(metas), len(w.fz.Queue))
		}
		if !slices.Equal(metas, w.fz.SchedMeta()) {
			t.Fatalf("worker %d: sched.bin is not the live queue's metadata in queue order", w.id)
		}
		saved[w.id] = metas
	}

	res, err := resumeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, w := range res.workers {
		// The first scheduling round imports the saved queue and nothing else.
		if err := w.fz.Step(); err != nil {
			t.Fatal(err)
		}
		got, want := w.fz.SchedMeta(), saved[w.id]
		if len(got) != len(want) {
			t.Fatalf("worker %d re-queued %d of %d saved entries", w.id, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != m {
				t.Fatalf("worker %d entry %d: metadata %+v, sched.bin entry %d holds %+v", w.id, i, got[i], i, m)
			}
			if m.Picked > 0 || m.Trimmed || m.Depth > 0 {
				restored++
			}
		}
	}
	if restored == 0 {
		t.Fatal("restored metadata is all zero — persistence is a no-op")
	}
}

// The sched strategy round-trips through the manifest: a campaign
// checkpointed under round-robin resumes under round-robin.
func TestCheckpointPersistsSchedStrategy(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(1, 10)
	cfg.Sched = core.SchedRoundRobin
	orig := run(t, cfg, time.Second)
	if err := checkpointDir(orig, dir); err != nil {
		t.Fatal(err)
	}
	res, err := resumeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.cfg.Sched != core.SchedRoundRobin {
		t.Fatalf("resumed sched = %v, want round-robin", res.cfg.Sched)
	}
}

// brokerRig is a broker with two hand-fed workers: tests append queue
// entries and run exchanges one at a time, in the order they choose.
type brokerRig struct {
	b      *broker
	w0, w1 *worker
	seeds  []*spec.Input
	salt   byte
}

func newBrokerRig(t *testing.T) *brokerRig {
	t.Helper()
	r := &brokerRig{b: newBroker()}
	r.b.initWorkers(2)
	for id, wp := range []**worker{&r.w0, &r.w1} {
		inst, err := targets.Launch("lightftp", targets.LaunchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fz := core.New(inst.Agent, inst.Spec, core.Options{Rand: rand.New(rand.NewSource(int64(id + 1)))})
		*wp = &worker{id: id, inst: inst, fz: fz, byKey: make(map[string][]*core.QueueEntry)}
		r.seeds = inst.Seeds()
	}
	return r
}

// sync runs one exchange for w: everything queued since its last one.
func (r *brokerRig) sync(w *worker) []importItem {
	return w.exchange(r.b, w.buildDelta(false))
}

// entry queues a favored entry with a fresh distinct input on w; cost
// scales both halves of the favFactor.
func (r *brokerRig) entry(w *worker, cost int, cov ...coverage.BucketHit) *core.QueueEntry {
	in := r.seeds[0].Clone()
	r.salt++
	in.Ops[0].Data = append([]byte{r.salt}, in.Ops[0].Data...)
	return r.copyOf(w, &core.QueueEntry{Input: in, ExecTime: time.Duration(cost) * time.Microsecond, Size: cost}, cov...)
}

// copyOf queues another live copy of e's input on w.
func (r *brokerRig) copyOf(w *worker, e *core.QueueEntry, cov ...coverage.BucketHit) *core.QueueEntry {
	cp := &core.QueueEntry{
		ID: len(w.fz.Queue), Input: e.Input.Clone(), ExecTime: e.ExecTime, Size: e.Size, Favored: true, Cov: cov,
	}
	w.fz.Queue = append(w.fz.Queue, cp)
	return cp
}

func hit(idx uint32, bucket byte) coverage.BucketHit {
	return coverage.BucketHit{Index: idx, Bucket: bucket}
}

func itemKeys(items []importItem) []string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = core.InputKey(it.input)
	}
	return keys
}

func entryKeys(es ...*core.QueueEntry) []string {
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = core.InputKey(e.Input)
	}
	return keys
}

// The broker's global favored competition must dedup favored sets across
// workers publishing overlapping coverage: the cheapest claim per edge
// wins, a locally-favored entry dominated on every edge is demoted (the
// loser feedback workers read next epoch), each worker pulls the other's
// fresh entries, and a previous winner is demoted once its last edge falls.
func TestBrokerGlobalFavoredDedup(t *testing.T) {
	r := newBrokerRig(t)
	b := r.b
	// Worker 0's entry is the cheap way to reach edges 10 and 20; worker
	// 1's covers the same edges (plus a bucket upgrade, so the broker
	// accepts it as globally fresh) but costs 100x more.
	cheap := r.entry(r.w0, 10, hit(10, 1), hit(20, 1))
	dear := r.entry(r.w1, 1000, hit(10, 2), hit(20, 1))
	if got := r.sync(r.w0); len(got) != 0 {
		t.Fatalf("first exchange pulled %d imports from an empty campaign", len(got))
	}
	got1 := r.sync(r.w1)

	if len(b.corpus) != 2 {
		t.Fatalf("broker accepted %d entries, want 2", len(b.corpus))
	}
	if !b.corpus[0].GlobalFav {
		t.Fatal("cheap entry did not win the global favored competition")
	}
	if b.corpus[1].GlobalFav {
		t.Fatal("dominated entry marked as a global winner")
	}
	if cheap.GloballyDominated {
		t.Fatal("winning entry demoted")
	}
	if !dear.GloballyDominated {
		t.Fatal("locally-favored entry dominated on every edge was not demoted — no loser feedback")
	}
	// Redistribution: each worker pulls the other's entry — the queued
	// input itself, which nobody writes again, not a copy of it.
	if !slices.Equal(itemKeys(got1), entryKeys(cheap)) || got1[0].input != cheap.Input {
		t.Fatalf("worker 1 pulled %v, want the cheap entry's own input", itemKeys(got1))
	}
	if got0 := r.sync(r.w0); !slices.Equal(itemKeys(got0), entryKeys(dear)) {
		t.Fatalf("worker 0 pulled %v, want the dear entry", itemKeys(got0))
	}
	if n := len(b.pending[0]) + len(b.pending[1]); n != 0 {
		t.Fatalf("%d imports still pending after both workers pulled", n)
	}

	// A later, cheaper publication displaces the previous winner edge by
	// edge; once its last claim falls, the old winner's worker is told at
	// its next exchange.
	cheaper := r.entry(r.w1, 1, hit(10, 4), hit(20, 2))
	r.sync(r.w1)
	if cheap.GloballyDominated {
		t.Fatal("demotion landed before the owner's exchange — the broker wrote a live entry")
	}
	r.sync(r.w0)
	if !cheap.GloballyDominated {
		t.Fatal("fully displaced previous winner was not demoted")
	}
	if cheaper.GloballyDominated {
		t.Fatal("new winner demoted")
	}
	if b.deduped != 0 {
		t.Fatalf("deduped = %d, want 0 (every publication so far was fresh)", b.deduped)
	}
}

// Duplicate publications — live copies of inputs whose coverage is already
// global — compete too, but never displace another input's claim: they are
// not redistributed, so unseating an incumbent would demote every worker's
// representative for an edge while the cheaper input exists on one worker.
func TestExchangeDuplicatesNeverDisplace(t *testing.T) {
	r := newBrokerRig(t)
	b := r.b
	incumbent := r.entry(r.w0, 100, hit(60, 1), hit(61, 1))
	r.sync(r.w0)
	// Cheaper, but adds no bucket bit: a duplicate.
	dup := r.entry(r.w1, 1, hit(60, 1), hit(61, 1))
	corpus := len(b.corpus)
	r.sync(r.w1)

	if len(b.corpus) != corpus || b.deduped != 1 {
		t.Fatalf("duplicate entered the corpus (%d -> %d entries, %d deduped)", corpus, len(b.corpus), b.deduped)
	}
	if len(b.pending[0]) != 0 {
		t.Fatal("duplicate was redistributed")
	}
	for _, idx := range []uint32{60, 61} {
		if key := b.claimOn(idx).key; key != core.InputKey(incumbent.Input) {
			t.Fatalf("edge %d: duplicate publication displaced the incumbent", idx)
		}
	}
	if !dup.GloballyDominated {
		t.Fatal("losing duplicate of a locally favored entry was not demoted")
	}
	r.sync(r.w0)
	if incumbent.GloballyDominated {
		t.Fatal("incumbent demoted by a duplicate publication")
	}
	// A duplicate does take an edge nobody claims yet (63: covered through
	// a virgin delta, never claimed); a zero-bucket hit claims nothing.
	b.exchange(0, epochDelta{virginDelta: []coverage.BucketHit{hit(63, 1)}})
	loner := r.entry(r.w1, 5, hit(60, 1), hit(62, 0), hit(63, 1))
	r.sync(r.w1)
	if len(b.corpus) != corpus {
		t.Fatal("entry covered by a virgin delta was accepted as fresh")
	}
	if key := b.claimOn(63).key; key != core.InputKey(loner.Input) {
		t.Fatal("duplicate publication did not take an unclaimed edge")
	}
	if b.claimOn(62).key != "" {
		t.Fatal("zero-bucket hit entered the competition")
	}
}

// Every live copy of a winner is bound to its claims: a copy of the current
// winner publishes as a duplicate and stays promoted, a copy of an input
// that already lost is demoted on publication, and displacing the winner's
// last edge demotes the original and the bound copy alike.
func TestExchangeDisplacementDemotesEveryCopy(t *testing.T) {
	r := newBrokerRig(t)
	b := r.b
	loser := r.entry(r.w0, 50, hit(30, 1))
	r.sync(r.w0)
	winner := r.entry(r.w1, 2, hit(30, 2))
	r.sync(r.w1)
	r.sync(r.w0)
	if !loser.GloballyDominated || winner.GloballyDominated {
		t.Fatalf("setup: loser demoted %v, winner demoted %v", loser.GloballyDominated, winner.GloballyDominated)
	}

	winnerCopy := r.copyOf(r.w0, winner, hit(30, 2))
	loserCopy := r.copyOf(r.w1, loser, hit(30, 1))
	corpus := len(b.corpus)
	r.sync(r.w0)
	r.sync(r.w1)
	if len(b.corpus) != corpus {
		t.Fatal("duplicate publications entered the corpus")
	}
	if winnerCopy.GloballyDominated {
		t.Fatal("live copy of the current winner was demoted")
	}
	if !loserCopy.GloballyDominated {
		t.Fatal("copy of a displaced input was not demoted on publication")
	}

	final := r.entry(r.w1, 1, hit(30, 4))
	r.sync(r.w1)
	r.sync(r.w0)
	if !winner.GloballyDominated || !winnerCopy.GloballyDominated {
		t.Fatalf("displacement did not demote every live copy (original %v, copy %v)",
			winner.GloballyDominated, winnerCopy.GloballyDominated)
	}
	if final.GloballyDominated {
		t.Fatal("new winner demoted")
	}
}

// A trim changes an entry's content key and cost: its claims move to the
// trimmed form's key at the new price, displacing nothing, and the worker
// binding moves with them so a later displacement still reaches the owner.
func TestExchangeTrimClaimTransfer(t *testing.T) {
	r := newBrokerRig(t)
	b := r.b
	e := r.entry(r.w0, 100, hit(70, 1), hit(40000, 1))
	rival := r.entry(r.w1, 50, hit(71, 1))
	r.sync(r.w0)
	r.sync(r.w1)
	oldKey := core.InputKey(e.Input)

	// What buildDelta reports after core trims e.
	e.Input.Ops[0].Data = e.Input.Ops[0].Data[1:]
	e.ExecTime, e.Size = 10*time.Microsecond, 10
	newKey := core.InputKey(e.Input)
	r.w0.rebind(oldKey, newKey, e)
	b.exchange(0, epochDelta{retrims: []retrimDelta{{oldKey: oldKey, newKey: newKey, fav: e.FavFactor()}}})

	for _, idx := range []uint32{70, 40000} {
		if cl := b.claimOn(idx); cl.key != newKey || cl.fav != e.FavFactor() {
			t.Fatalf("edge %d: claim %+v not re-filed under the trimmed key at the new cost", idx, cl)
		}
	}
	if b.wins(oldKey) != 0 || b.wins(newKey) != 2 {
		t.Fatalf("claim counts not moved: old %d, new %d", b.wins(oldKey), b.wins(newKey))
	}
	if cl := b.claimOn(71); cl.key != core.InputKey(rival.Input) {
		t.Fatal("a claim transfer displaced another input's claim")
	}
	// A transfer of an input that holds no claims is a no-op.
	b.exchange(1, epochDelta{retrims: []retrimDelta{{oldKey: "absent", newKey: "other", fav: 1}}})
	if b.wins("other") != 0 {
		t.Fatal("transfer of an unclaimed key created claims")
	}

	// Displacing the trimmed form reaches the owner through the moved
	// worker binding.
	r.entry(r.w1, 1, hit(70, 2), hit(40000, 2))
	r.sync(r.w1)
	r.sync(r.w0)
	if !e.GloballyDominated {
		t.Fatal("displacement of the trimmed form did not demote the live entry")
	}
	// Transfers and displacements replace claims: every edge ever claimed
	// is listed once, ascending.
	if want := []uint32{70, 71, 40000}; !slices.Equal(b.claimed, want) {
		t.Fatalf("claimed edges %v, want %v", b.claimed, want)
	}
}

// Within one delta the fresh entries are accepted and redistributed global
// winners first, stable within each class; across deltas order is arrival
// order.
func TestOrderImportsGlobalWinnersFirst(t *testing.T) {
	r := newBrokerRig(t)
	b := r.b
	r.entry(r.w1, 1, hit(40, 1), hit(41, 1))
	r.sync(r.w1)

	// Losers are fresh through a bucket upgrade but 1000x the incumbent's
	// cost; winners take edges nobody holds.
	l1 := r.entry(r.w0, 1000, hit(40, 2))
	w1 := r.entry(r.w0, 1000, hit(50, 1))
	l2 := r.entry(r.w0, 1000, hit(41, 2))
	w2 := r.entry(r.w0, 1000, hit(51, 1))
	r.sync(r.w0)
	want := entryKeys(w1, w2, l1, l2)
	if got := itemKeys(b.pending[1]); !slices.Equal(got, want) {
		t.Fatalf("import order = %v, want winners first %v", got, want)
	}
	var corpus []string
	for _, be := range b.corpus[1:] {
		corpus = append(corpus, be.Entry.Key())
	}
	if !slices.Equal(corpus, want) {
		t.Fatalf("corpus order = %v, want %v", corpus, want)
	}
	for i, be := range b.corpus[1:] {
		if be.GlobalFav != (i < 2) {
			t.Fatalf("corpus entry %d GlobalFav = %v", i+1, be.GlobalFav)
		}
	}
	// A later delta queues behind, winner or not.
	w3 := r.entry(r.w0, 1000, hit(52, 1))
	r.sync(r.w0)
	if got := itemKeys(b.pending[1]); !slices.Equal(got, append(want, entryKeys(w3)...)) {
		t.Fatalf("second delta reordered the queue: %v", got)
	}
}

// A full import queue sheds non-favored entries first — including a
// non-favored newcomer when everything queued is a global winner.
func TestPushPendingDropsNonFavoredFirst(t *testing.T) {
	b := newBroker()
	b.initWorkers(1)
	fav := func(i int) importItem { return importItem{input: &spec.Input{SnapshotAt: i}, globalFav: true} }
	for i := 0; i < maxPendingImports; i++ {
		b.pushPending(0, fav(i))
	}
	b.pushPending(0, importItem{input: &spec.Input{}})
	if len(b.pending[0]) != maxPendingImports || b.importsDropped != 1 {
		t.Fatalf("queue %d items, %d dropped", len(b.pending[0]), b.importsDropped)
	}
	for i, it := range b.pending[0] {
		if !it.globalFav || it.input.SnapshotAt != i {
			t.Fatalf("slot %d: a non-favored newcomer evicted a favored entry", i)
		}
	}
	// A favored newcomer takes the place of the oldest.
	b.pushPending(0, fav(maxPendingImports))
	if q := b.pending[0]; len(q) != maxPendingImports || q[0].input.SnapshotAt != 1 ||
		q[len(q)-1].input.SnapshotAt != maxPendingImports || b.importsDropped != 2 {
		t.Fatalf("favored newcomer: head %d, tail %d, %d dropped",
			q[0].input.SnapshotAt, q[len(q)-1].input.SnapshotAt, b.importsDropped)
	}
	// With a non-favored entry queued, that one goes, wherever it sits.
	b.pending[0][7].globalFav = false
	victim := b.pending[0][7].input
	b.pushPending(0, fav(maxPendingImports+1))
	for _, it := range b.pending[0] {
		if it.input == victim {
			t.Fatal("non-favored entry survived a full queue")
		}
	}
	if b.pending[0][0].input.SnapshotAt != 1 || b.importsDropped != 3 {
		t.Fatal("oldest favored entry dropped while a non-favored one was queued")
	}
}

// The lockstep barrier exchanges every worker twice in ID order, so a
// round ends with nothing pending, and the whole campaign — checkpoint
// bytes included — is a pure function of the master seed.
func TestLockstepRoundDrainsAndIsDeterministic(t *testing.T) {
	var digests []string
	for i := 0; i < 2; i++ {
		cfg := testCfg(3, 13)
		cfg.Power = core.PowerCoe
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			if err := c.RunFor(cfg.SyncInterval); err != nil {
				t.Fatal(err)
			}
			for wid, q := range c.broker.pending {
				if len(q) != 0 || len(c.broker.notices[wid]) != 0 {
					t.Fatalf("round %d: worker %d left %d imports, %d notices pending",
						round, wid, len(q), len(c.broker.notices[wid]))
				}
			}
		}
		if c.CorpusSize() == 0 || c.Deduped() == 0 {
			t.Fatalf("sync not exercised: corpus %d, deduped %d", c.CorpusSize(), c.Deduped())
		}
		if st := c.SyncStats(); st.Epochs != 2*3*4 {
			t.Fatalf("4 rounds x 3 workers made %d exchanges", st.Epochs)
		}
		tree, err := c.CheckpointTree()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, treeDigest(tree))
	}
	if digests[0] != digests[1] {
		t.Fatalf("same seed, different checkpoint trees: %s vs %s", digests[0], digests[1])
	}
}

// A campaign run under a power schedule persists its power state — the
// schedule choice in the manifest, per-edge pick frequencies per worker,
// the broker's top-rated digest, and full corpus-entry metadata — and a
// resume restores all of it.
func TestCheckpointPersistsPowerState(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(2, 11)
	cfg.Power = core.PowerCoe
	orig := run(t, cfg, 2*time.Second)
	if err := checkpointDir(orig, dir); err != nil {
		t.Fatal(err)
	}

	for _, w := range orig.workers {
		_, m := loadSchedState(t, dir, w.id)
		if m == nil || m.TotalPicked == 0 || len(m.EdgePicks) == 0 {
			t.Fatalf("worker %d checkpoint has empty power state: %+v", w.id, m)
		}
	}

	res, err := resumeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.cfg.Power != core.PowerCoe {
		t.Fatalf("resumed power = %v, want coe", res.cfg.Power)
	}
	for i, w := range res.workers {
		st := w.fz.PowerState()
		if st.TotalPicked == 0 || len(st.EdgePicks) == 0 {
			t.Fatalf("worker %d resumed with zeroed power state", i)
		}
	}
	if len(res.broker.claimed) == 0 {
		t.Fatal("broker top-rated digest not restored")
	}
	if len(res.broker.claimed) != len(orig.broker.claimed) {
		t.Fatalf("restored top-rated digest has %d claims, want %d",
			len(res.broker.claimed), len(orig.broker.claimed))
	}
	// The corpus history carries the metadata the global competition
	// reads — not the bare {ID, Input} shells the pre-power resume built.
	restoredMeta := false
	for i, be := range res.broker.corpus {
		ob := orig.broker.corpus[i]
		if be.Entry.Favored != ob.Entry.Favored || be.GlobalFav != ob.GlobalFav ||
			be.Entry.ExecTime != ob.Entry.ExecTime || be.Entry.Size != ob.Entry.Size ||
			len(be.Entry.Cov) != len(ob.Entry.Cov) {
			t.Fatalf("corpus entry %d metadata not restored: %+v vs %+v", i, be.Entry, ob.Entry)
		}
		if len(be.Entry.Cov) > 0 && be.Entry.ExecTime > 0 {
			restoredMeta = true
		}
	}
	if !restoredMeta {
		t.Fatal("restored corpus metadata is all zero — persistence is a no-op")
	}
	if err := res.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

// editManifest returns a copy of tree whose header went through edit,
// decoded and re-encoded the way the package itself does it.
func editManifest(t *testing.T, tree store.Tree, edit func(m *manifest)) store.Tree {
	t.Helper()
	m, err := readManifest(tree)
	if err != nil {
		t.Fatal(err)
	}
	edit(&m)
	raw, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	out := maps.Clone(tree)
	out[ManifestFile] = raw
	return out
}

// editBroker is editManifest for broker.bin: edit works on the decoded
// broker, the package's encoder writes it back with the holders it was
// decoded with, and the header's counts follow.
func editBroker(t *testing.T, tree store.Tree, edit func(b *broker)) store.Tree {
	t.Helper()
	return editBrokerHolders(t, tree, func(b *broker, _ *holders) { edit(b) })
}

// editBrokerHolders is editBroker with the corpus entries' holders to edit
// too.
func editBrokerHolders(t *testing.T, tree store.Tree, edit func(b *broker, hs *holders)) store.Tree {
	t.Helper()
	m, err := readManifest(tree)
	if err != nil {
		t.Fatal(err)
	}
	b, hs, err := decodeBroker(tree[brokerFile], indexQueues(tree, m.Workers))
	if err != nil {
		t.Fatal(err)
	}
	edit(b, &hs)
	var w guest.StateWriter
	b.encode(&w, hs)
	out := editManifest(t, tree, func(m *manifest) { m.Corpus, m.Crashes = len(b.corpus), len(b.crashes) })
	out[brokerFile] = w.Bytes()
	return out
}

// One version is written and one is read: both sync modes declare it, and a
// header that declares any other — the previous ones, which older builds
// wrote, included — is refused with an error naming the version, not resumed
// on guesses.
func TestResumeRefusesOldManifestVersions(t *testing.T) {
	tree, err := run(t, testCfg(1, 12), time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := readManifest(tree); err != nil || m.Version != manifestVersion || m.SyncMode != SyncLockstep || len(m.WorkerEpochs) != 1 {
		t.Fatalf("lockstep manifest: %+v, %v", m, err)
	}
	refused := func(v int, tree store.Tree) {
		t.Helper()
		_, err := ResumeTree(tree)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d ", v)) {
			t.Fatalf("version-%d manifest: err = %v, want a refusal naming the version", v, err)
		}
		if _, err := Summarize(tree); err == nil {
			t.Fatalf("version-%d manifest summarized", v)
		}
	}
	for _, v := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, manifestVersion + 1} {
		refused(v, editManifest(t, tree, func(m *manifest) { m.Version = v }))
	}
	// A header shaped the way version 4 shaped it: the corpus and the
	// crashes as lists.
	v4 := maps.Clone(tree)
	v4[ManifestFile] = []byte(`{"version": 4, "target": "lightftp", "workers": 1, "sync_mode": "lockstep",
		"crashes": [], "corpus": [{"worker": 0, "input_b64": "TllYQgEAAAAAAA=="}], "cov_log": []}`)
	refused(4, v4)
}

// editManifestKey returns a copy of tree whose header has key set to the
// JSON value raw: what a typed edit cannot write, such as an enum name no
// constant has.
func editManifestKey(t *testing.T, tree store.Tree, key, raw string) store.Tree {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(tree[ManifestFile], &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m[key]; !ok {
		t.Fatalf("the header has no %q", key)
	}
	m[key] = json.RawMessage(raw)
	enc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	out := maps.Clone(tree)
	out[ManifestFile] = enc
	return out
}

// The checkpoint is untrusted: enum names no value has, enums in the integer
// form of earlier versions and worker indices outside the campaign are
// errors, not silent defaults. An enum's error names its field.
func TestResumeRejectsBadManifest(t *testing.T) {
	orig := run(t, asyncCfg(2, 12), time.Second)
	tree, err := orig.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	pending := func(worker int) func(b *broker) {
		return func(b *broker) {
			for len(b.pending) <= worker {
				b.pending = append(b.pending, nil)
			}
			b.pending[worker] = append(b.pending[worker], importItem{input: b.corpus[0].Entry.Input})
		}
	}
	corpusWorker := func(worker int) func(b *broker) {
		return func(b *broker) { b.corpus[0].Worker = worker }
	}
	if _, err := ResumeTree(editBroker(t, tree, pending(1))); err != nil {
		t.Fatalf("in-range edit refused: %v", err)
	}
	for name, bad := range map[string]struct {
		tree store.Tree
		want string // what the error says, when it must name a field
	}{
		"policy nyxnet-aggressive": {editManifestKey(t, tree, "policy", `"nyxnet-aggressive"`), "unknown policy"},
		"policy 2":                 {editManifestKey(t, tree, "policy", `2`), ".policy of type core.Policy"},
		"sched fifo":               {editManifestKey(t, tree, "sched", `"fifo"`), "unknown scheduler"},
		"power fast":               {editManifestKey(t, tree, "power", `"fast"`), "unknown power schedule"},
		"sync mode":                {editManifestKey(t, tree, "sync_mode", `"sometimes"`), "unknown sync mode"},
		"power on round-robin": {editManifest(t, tree, func(m *manifest) { m.Sched, m.Power = core.SchedRoundRobin, core.PowerCoe }),
			"requires the afl scheduler"},
		"1025 workers":         {editManifest(t, tree, func(m *manifest) { m.Workers = 1025 }), "1025 workers"},
		"three epoch counters": {editManifest(t, tree, func(m *manifest) { m.WorkerEpochs = []int{1, 1, 1} }), ""},
		"corpus count":         {editManifest(t, tree, func(m *manifest) { m.Corpus++ }), ""},
		"crash count":          {editManifest(t, tree, func(m *manifest) { m.Crashes++ }), ""},
		"corpus worker 2":      {editBroker(t, tree, corpusWorker(2)), ""},
		"corpus worker -1":     {editBroker(t, tree, corpusWorker(-1)), ""},
		"pending queue 2":      {editBroker(t, tree, pending(2)), ""},
		"no pending queues":    {editBroker(t, tree, func(b *broker) { b.pending = nil }), ""},
	} {
		c, err := ResumeTree(bad.tree)
		if err == nil {
			t.Errorf("%s: resumed (policy %v, sched %v, power %v), want an error", name, c.cfg.Policy, c.cfg.Sched, c.cfg.Power)
		} else if !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want one saying %q", name, err, bad.want)
		}
	}
}

// Every field of the campaign's configuration, and every value of each of
// its enums, comes back from a checkpoint as it went in: the header embeds
// Config, and ResumeTree and Summarize read it back.
func TestCheckpointRoundTripsEveryConfigField(t *testing.T) {
	cfgs := []Config{
		{Target: "lightftp", Workers: 2, Policy: core.PolicyNone, Seed: -5, SyncInterval: 250 * time.Millisecond,
			Sched: core.SchedRoundRobin, Power: core.PowerOff, SnapBudget: 0, Asan: true, SyncMode: SyncLockstep},
		{Target: "dnsmasq", Workers: 1, Policy: core.PolicyBalanced, Seed: 7, SyncInterval: time.Second,
			Sched: core.SchedAFL, Power: core.PowerCoe, SnapBudget: 1 << 20, SyncMode: SyncAsync},
		{Target: "tinydtls", Workers: 3, Policy: core.PolicyAggressive, Seed: 1 << 40, SyncInterval: 100 * time.Millisecond,
			Sched: core.SchedAFL, SnapBudget: DefaultSnapBudget, SyncMode: SyncLockstep},
	}
	// Every value each enum can take appears in some configuration above,
	// and so does a non-zero value of every field.
	seen := map[string]bool{}
	set := reflect.New(reflect.TypeFor[Config]()).Elem()
	for _, cfg := range cfgs {
		for _, e := range []encoding.TextMarshaler{cfg.Policy, cfg.Sched, cfg.Power, cfg.SyncMode} {
			seen[fmt.Sprintf("%T %v", e, e)] = true
		}
		v := reflect.ValueOf(cfg)
		for i := range v.NumField() {
			if set.Type().Field(i).IsExported() && !v.Field(i).IsZero() {
				set.Field(i).Set(v.Field(i))
			}
		}
	}
	for v := range 8 {
		for _, e := range []encoding.TextMarshaler{core.Policy(v), core.Sched(v), core.Power(v), SyncMode(v)} {
			if _, err := e.MarshalText(); err == nil && !seen[fmt.Sprintf("%T %v", e, e)] {
				t.Errorf("no configuration has %T %v", e, e)
			}
		}
	}
	for i := range set.NumField() {
		if f := set.Type().Field(i); f.IsExported() && set.Field(i).IsZero() {
			t.Errorf("no configuration sets Config.%s", f.Name)
		}
	}

	for _, cfg := range cfgs {
		tree, err := run(t, cfg, 10*time.Millisecond).CheckpointTree()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ResumeTree(tree)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Target, err)
		}
		if !reflect.DeepEqual(r.cfg, cfg) {
			t.Errorf("resumed configuration\n  got  %+v\n  want %+v", r.cfg, cfg)
		}
		if s, err := Summarize(tree); err != nil || !reflect.DeepEqual(s.Config, cfg) {
			t.Errorf("summarized configuration %+v, %v; want %+v", s.Config, err, cfg)
		}
	}
}

func TestResumeErrors(t *testing.T) {
	if _, err := resumeDir(t.TempDir()); err == nil {
		t.Fatal("resume of empty dir must fail")
	}
}

func TestCampaignUnknownTarget(t *testing.T) {
	if _, err := New(Config{Target: "no-such-target"}); err == nil {
		t.Fatal("unknown target must fail")
	}
}

// A power schedule on the round-robin scheduler would be a silent no-op
// (round-robin has no energy function); the campaign must reject the
// combination instead of recording a power name it never applied.
func TestCampaignRejectsPowerWithRoundRobin(t *testing.T) {
	cfg := testCfg(1, 1)
	cfg.Sched = core.SchedRoundRobin
	cfg.Power = core.PowerCoe
	if _, err := New(cfg); err == nil {
		t.Fatal("power + round-robin must fail")
	}
}

func TestCampaignSnapshotPool(t *testing.T) {
	cfg := testCfg(2, 1)
	cfg.SnapBudget = 4 << 20
	c := run(t, cfg, 2*time.Second)
	agg := c.PoolStats()
	if agg.Hits == 0 || agg.Misses == 0 {
		t.Fatalf("pool not exercised across workers: %+v", agg)
	}
	for _, st := range c.PerWorker() {
		if st.PoolHits+st.PoolMisses == 0 {
			t.Fatalf("worker %d never touched its pool", st.ID)
		}
		if st.PoolBytes > cfg.SnapBudget {
			t.Fatalf("worker %d pool bytes %d exceed budget %d", st.ID, st.PoolBytes, cfg.SnapBudget)
		}
	}
	if c.RootExecs() == 0 || c.RootExecs() >= c.Execs() {
		t.Fatalf("root-exec accounting wrong: %d of %d", c.RootExecs(), c.Execs())
	}
}

// TestCampaignPoolStatsSumsEveryField holds Campaign.PoolStats to the sum of
// its workers' pool counters, field by field through reflection, so a counter
// added to snappool.Stats later cannot be left out of the sum silently.
// PeakBytes is documented as the sum of the per-worker peaks.
func TestCampaignPoolStatsSumsEveryField(t *testing.T) {
	cfg := testCfg(2, 1)
	cfg.Target = "bftpd"
	cfg.SnapBudget = 4 << 20
	c := run(t, cfg, 2*time.Second)
	var digestHits uint64
	var lookupWall time.Duration
	for _, w := range c.workers {
		digestHits += w.fz.PoolStats().DigestHits
		lookupWall += w.fz.PoolStats().LookupWall
	}
	if digestHits == 0 || lookupWall == 0 {
		t.Fatalf("workers counted %d digest hits and %v of lookups: the sum would prove nothing", digestHits, lookupWall)
	}
	got := reflect.ValueOf(c.PoolStats())
	for i := 0; i < got.NumField(); i++ {
		f := got.Type().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			var want int64
			for _, w := range c.workers {
				want += reflect.ValueOf(w.fz.PoolStats()).Field(i).Int()
			}
			if g := got.Field(i).Int(); g != want {
				t.Errorf("PoolStats().%s = %d, want the workers' sum %d", f.Name, g, want)
			}
		case reflect.Uint64:
			var want uint64
			for _, w := range c.workers {
				want += reflect.ValueOf(w.fz.PoolStats()).Field(i).Uint()
			}
			if g := got.Field(i).Uint(); g != want {
				t.Errorf("PoolStats().%s = %d, want the workers' sum %d", f.Name, g, want)
			}
		default:
			t.Errorf("snappool.Stats.%s is a %s, which this test cannot sum", f.Name, f.Type)
		}
	}
}

func TestCampaignSharesEdgePicksOnSync(t *testing.T) {
	cfg := testCfg(2, 3)
	cfg.Power = core.PowerCoe
	c := run(t, cfg, 2*time.Second)
	// After at least one sync, every worker must have received the
	// others' pick frequencies.
	if c.Rounds() == 0 {
		t.Fatal("no sync rounds ran")
	}
	for i, w := range c.workers {
		if len(w.fz.PowerState().EdgePicks) == 0 {
			t.Fatalf("worker %d has no local pick state", i)
		}
	}
	got := 0
	for _, w := range c.workers {
		if w.fz.PeerPickSum() > 0 {
			got++
		}
	}
	if got == 0 {
		t.Fatal("no worker received peer edge picks")
	}
}

func TestCheckpointPersistsSnapBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := testCfg(1, 5)
	cfg.SnapBudget = 2 << 20
	c := run(t, cfg, 1*time.Second)
	if err := checkpointDir(c, dir); err != nil {
		t.Fatal(err)
	}
	r, err := resumeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.SnapBudget != cfg.SnapBudget {
		t.Fatalf("resumed snap budget = %d, want %d", r.cfg.SnapBudget, cfg.SnapBudget)
	}
	if err := r.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if agg := r.PoolStats(); agg.Hits+agg.Misses == 0 {
		t.Fatal("resumed campaign did not re-enable the pool")
	}
}
