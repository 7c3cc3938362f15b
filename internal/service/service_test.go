package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/store"
)

// testSpec is a short deterministic campaign: lockstep rounds of 500ms
// virtual time, total budget d, and the policy a submitted spec defaults to.
func testSpec(id string, seed int64, d time.Duration) Spec {
	return Spec{ID: id, Duration: d, Config: campaign.Config{
		Target:       "lightftp",
		Workers:      2,
		Policy:       core.PolicyAggressive,
		Seed:         seed,
		SyncInterval: 500 * time.Millisecond,
	}}
}

func dirStore(t *testing.T) store.Storer {
	t.Helper()
	st, err := store.Open("dir://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func memStore(t *testing.T) store.Storer {
	t.Helper()
	st, err := store.Open(fmt.Sprintf("mem://svc-%s-%d", t.Name(), time.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the campaign reaches want (fails on terminal
// states that are not want).
func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := m.CampaignStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("campaign %s reached %s (error %q) waiting for %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitElapsed polls until the campaign's virtual clock reaches d.
func waitElapsed(t *testing.T, m *Manager, id string, d time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := m.CampaignStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Elapsed >= d {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("campaign %s reached %s at %v, waiting for elapsed %v", id, st.State, st.Elapsed, d)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck at %v, waiting for %v", id, st.Elapsed, d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// coverageEvents filters a feed down to its coverage points.
func coverageEvents(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Type == "coverage" {
			out = append(out, e)
		}
	}
	return out
}

func allEvents(t *testing.T, m *Manager, id string) []Event {
	t.Helper()
	events, _, _, err := m.Events(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// Two campaigns run concurrently under one manager; pausing one
// checkpoints it and leaves the other running; killing the manager and
// restarting from the store recovers both with monotone virtual clocks
// and edge counts.
func TestManagerTwoCampaignsPauseKillRestart(t *testing.T) {
	st := dirStore(t)
	m := New(Config{Store: st, CheckpointEvery: time.Second})
	if _, err := m.Submit(testSpec("a", 1, 3*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec("b", 2, 30*time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := len(m.List()); n != 2 {
		t.Fatalf("listed %d campaigns, want 2", n)
	}

	// Pause b mid-flight: the pause itself writes a checkpoint.
	waitElapsed(t, m, "b", time.Second)
	pausedB, err := m.Pause("b")
	if err != nil {
		t.Fatal(err)
	}
	if pausedB.State != StatePaused {
		t.Fatalf("pause left b in %s", pausedB.State)
	}
	if pausedB.CheckpointedAt == 0 || pausedB.CheckpointedAt > pausedB.Elapsed {
		t.Fatalf("pause checkpoint at %v with elapsed %v", pausedB.CheckpointedAt, pausedB.Elapsed)
	}
	if _, err := m.Pause("b"); err == nil {
		t.Fatal("second pause of b succeeded")
	}

	// a keeps running to completion while b sits paused.
	doneA := waitState(t, m, "a", StateDone)
	if doneA.Elapsed < 3*time.Second {
		t.Fatalf("a done at %v, want >= 3s", doneA.Elapsed)
	}
	if doneA.Edges == 0 || doneA.Execs == 0 {
		t.Fatalf("a finished without progress: %+v", doneA)
	}

	// Kill the manager (graceful close also checkpoints b's final state).
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec("c", 3, time.Second)); err == nil {
		t.Fatal("closed manager accepted a submit")
	}

	// Fresh manager on the same store: both campaigns recover.
	m2 := New(Config{Store: st, CheckpointEvery: time.Second})
	recovered, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d campaigns, want 2", len(recovered))
	}
	for _, r := range recovered {
		if r.State != StateStored {
			t.Fatalf("recovered %s in state %s", r.ID, r.State)
		}
	}
	recB, err := m2.CampaignStatus("b")
	if err != nil {
		t.Fatal(err)
	}
	if recB.Elapsed < pausedB.CheckpointedAt {
		t.Fatalf("b's clock went backwards across restart: %v < %v", recB.Elapsed, pausedB.CheckpointedAt)
	}
	if recB.Edges == 0 {
		t.Fatal("b recovered with no coverage")
	}

	// Resume b with a fresh, larger budget: the clock and edges continue
	// monotonically from the checkpoint.
	if _, err := m2.Resume("b", recB.Elapsed+time.Second); err != nil {
		t.Fatal(err)
	}
	finalB := waitState(t, m2, "b", StateDone)
	if finalB.Elapsed < recB.Elapsed {
		t.Fatalf("b's clock went backwards after resume: %v < %v", finalB.Elapsed, recB.Elapsed)
	}
	if finalB.Edges < recB.Edges {
		t.Fatalf("b's edges went backwards after resume: %d < %d", finalB.Edges, recB.Edges)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// The crash feed delivers each globally deduplicated crash exactly once
// per subscriber, and every coverage point exactly once, in order.
func TestCrashFeedExactlyOnce(t *testing.T) {
	m := New(Config{Store: memStore(t)})
	spec := testSpec("crashy", 5, 3*time.Second)
	spec.Target = "dnsmasq" // shallow bugs: crashes arrive fast
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, "crashy", StateDone)
	if st.Crashes == 0 {
		t.Fatal("dnsmasq campaign found no crashes — feed not exercised")
	}
	events := allEvents(t, m, "crashy")
	seen := map[string]int{}
	var crashes, lastSeq int
	lastSeq = -1
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("event sequence not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Type != "crash" {
			continue
		}
		crashes++
		seen[e.Crash.Kind+"|"+e.Crash.Msg]++
	}
	if crashes != st.Crashes {
		t.Fatalf("feed delivered %d crashes, status says %d", crashes, st.Crashes)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("crash %q delivered %d times", key, n)
		}
	}
	// A second subscriber reading the same log gets the identical feed.
	again := allEvents(t, m, "crashy")
	if len(again) != len(events) {
		t.Fatalf("second subscriber got %d events, first got %d", len(again), len(events))
	}
	for i := range events {
		if events[i].Seq != again[i].Seq || events[i].Type != again[i].Type {
			t.Fatalf("subscribers diverge at %d: %+v vs %+v", i, events[i], again[i])
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// CheckpointNow persists mid-flight state on demand; Delete removes the
// campaign from both the manager and the store.
func TestCheckpointNowAndDelete(t *testing.T) {
	st := dirStore(t)
	m := New(Config{Store: st, CheckpointEvery: -1}) // no auto-checkpoints
	if _, err := m.Submit(testSpec("x", 9, 30*time.Second)); err != nil {
		t.Fatal(err)
	}
	waitElapsed(t, m, "x", 500*time.Millisecond)
	ck, err := m.CheckpointNow("x")
	if err != nil {
		t.Fatal(err)
	}
	if ck.CheckpointedAt == 0 {
		t.Fatal("CheckpointNow recorded no checkpoint")
	}
	if _, err := st.GetTree(DefaultPrefix + "/x"); err != nil {
		t.Fatalf("checkpoint tree missing: %v", err)
	}
	// The tree stores the configuration once, in its manifest: the
	// service's own key holds the budget and nothing else.
	raw, err := st.Get(DefaultPrefix + "/x/" + budgetKey)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 1 || keys["duration_ns"] != float64(30*time.Second) {
		t.Fatalf("%s holds %s (%v), want only the budget", budgetKey, raw, err)
	}
	if err := m.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CampaignStatus("x"); err == nil {
		t.Fatal("deleted campaign still listed")
	}
	if _, err := st.GetTree(DefaultPrefix + "/x"); err == nil {
		t.Fatal("deleted campaign's tree still in store")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// Bad specs and unknown ids fail cleanly.
func TestManagerErrors(t *testing.T) {
	m := New(Config{})
	ftp := campaign.Config{Target: "lightftp"}
	if _, err := m.Submit(Spec{Config: ftp}); err == nil {
		t.Fatal("submit with no duration succeeded")
	}
	if _, err := m.Submit(Spec{Duration: time.Second, Config: campaign.Config{Target: "nope"}}); err == nil {
		t.Fatal("submit with unknown target succeeded")
	}
	if _, err := m.Submit(Spec{ID: "a/b", Duration: time.Second, Config: ftp}); err == nil {
		t.Fatal("submit with slash id succeeded")
	}
	bogus := ftp
	bogus.Policy = core.Policy(-1)
	if _, err := m.Submit(Spec{Duration: time.Second, Config: bogus}); err == nil {
		t.Fatal("submit with bogus policy succeeded")
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("refused submits registered %d campaigns", n)
	}
	if _, err := m.CampaignStatus("ghost"); err == nil {
		t.Fatal("status of unknown campaign succeeded")
	}
	if _, err := m.Pause("ghost"); err == nil {
		t.Fatal("pause of unknown campaign succeeded")
	}
	if _, err := m.Resume("ghost", 0); err == nil {
		t.Fatal("resume of unknown campaign succeeded")
	}
	if _, err := m.Recover(); err == nil {
		t.Fatal("recover with no store succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// Duplicate explicit ids are rejected; generated ids never collide.
func TestManagerIDs(t *testing.T) {
	m := New(Config{})
	a, err := m.Submit(testSpec("", 1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(testSpec("", 2, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || a.ID == b.ID {
		t.Fatalf("generated ids %q, %q", a.ID, b.ID)
	}
	if _, err := m.Submit(testSpec(a.ID, 3, time.Second)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// putOrder is a store that records, in order, the trees PutTree writes.
type putOrder struct {
	store.Storer
	mu    sync.Mutex
	names []string
}

func (s *putOrder) PutTree(name string, t store.Tree) error {
	s.mu.Lock()
	s.names = append(s.names, name)
	s.mu.Unlock()
	return s.Storer.PutTree(name, t)
}

// The manager's map of campaigns has an iteration order of its own, and
// neither listings nor shutdown may follow it: with ids submitted out of
// order, List comes back sorted by id every time, and Close checkpoints
// the campaigns in id order.
func TestListAndCloseFollowIDOrder(t *testing.T) {
	st := &putOrder{Storer: memStore(t)}
	m := New(Config{Store: st, CheckpointEvery: time.Hour})
	ids := []string{"c", "a", "e", "b", "d"}
	for i, id := range ids {
		spec := testSpec(id, int64(i+1), time.Hour)
		spec.Workers = 1
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Pause(id); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Sorted(slices.Values(ids))
	for range 10 {
		var got []string
		for _, s := range m.List() {
			got = append(got, s.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("List gave %v, want %v", got, want)
		}
	}
	st.mu.Lock()
	st.names = nil
	st.mu.Unlock()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var trees []string
	for _, id := range want {
		trees = append(trees, DefaultPrefix+"/"+id)
	}
	if !slices.Equal(st.names, trees) {
		t.Fatalf("Close checkpointed %v, want %v", st.names, trees)
	}
}

// An async-mode spec runs under the manager in coarser slices, survives
// pause/checkpoint/restart, and resumes still async with monotone clock
// and edge count. Bad sync modes are rejected at submit.
func TestManagerAsyncSpec(t *testing.T) {
	bad := testSpec("bad", 1, time.Second)
	bad.SyncMode = campaign.SyncMode(7)
	m0 := New(Config{})
	if _, err := m0.Submit(bad); err == nil {
		t.Fatal("submit with bogus sync_mode succeeded")
	}
	if err := m0.Close(); err != nil {
		t.Fatal(err)
	}

	st := dirStore(t)
	m := New(Config{Store: st})
	spec := testSpec("as", 7, 30*time.Second)
	spec.SyncMode = campaign.SyncAsync
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitElapsed(t, m, "as", 2*time.Second)
	paused, err := m.Pause("as")
	if err != nil {
		t.Fatal(err)
	}
	if paused.CheckpointedAt == 0 {
		t.Fatal("pause of async campaign wrote no checkpoint")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := New(Config{Store: st})
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	rec, err := m2.CampaignStatus("as")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Spec.SyncMode != campaign.SyncAsync {
		t.Fatalf("recovered spec sync_mode %v, want async", rec.Spec.SyncMode)
	}
	if rec.Edges == 0 {
		t.Fatal("recovered async campaign has no coverage")
	}
	if _, err := m2.Resume("as", rec.Elapsed+time.Second); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m2, "as", StateDone)
	if final.Elapsed < rec.Elapsed || final.Edges < rec.Edges {
		t.Fatalf("async campaign regressed across restart: %v/%d -> %v/%d",
			rec.Elapsed, rec.Edges, final.Elapsed, final.Edges)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// noTreeReads is a store whose GetTree fails the test: what a listing needs
// is two objects per campaign, not the tree.
type noTreeReads struct {
	store.Storer
	t *testing.T
}

func (s noTreeReads) GetTree(name string) (store.Tree, error) {
	s.t.Errorf("GetTree(%q) called", name)
	return s.Storer.GetTree(name)
}

// One stored campaign whose header does not decode is left out and named in
// the error; every other campaign is registered, and no tree is read to do it.
func TestRecoverSkipsUndecodableCampaign(t *testing.T) {
	for name, st := range map[string]store.Storer{"dir": dirStore(t), "mem": memStore(t)} {
		t.Run(name, func(t *testing.T) {
			m := New(Config{Store: st})
			for i, id := range []string{"a", "b", "c"} {
				if _, err := m.Submit(testSpec(id, int64(i+1), 500*time.Millisecond)); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []string{"a", "b", "c"} {
				waitState(t, m, id, StateDone)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			name := DefaultPrefix + "/b"
			tree, err := st.GetTree(name)
			if err != nil {
				t.Fatal(err)
			}
			raw := tree[campaign.ManifestFile]
			tree[campaign.ManifestFile] = raw[:len(raw)/2]
			if err := st.PutTree(name, tree); err != nil {
				t.Fatal(err)
			}

			m2 := New(Config{Store: noTreeReads{st, t}})
			recovered, err := m2.Recover()
			if err == nil || !strings.Contains(err.Error(), `"b"`) {
				t.Fatalf("Recover error = %v, want one naming campaign b", err)
			}
			if len(recovered) != 2 || recovered[0].ID != "a" || recovered[1].ID != "c" {
				t.Fatalf("recovered %+v, want campaigns a and c", recovered)
			}
			for _, r := range recovered {
				if r.State != StateStored || r.Edges == 0 || r.Corpus == 0 || r.Spec.Seed == 0 {
					t.Fatalf("recovered %s as %+v", r.ID, r)
				}
			}
			if _, err := m2.CampaignStatus("b"); err == nil {
				t.Fatal("the undecodable campaign was registered")
			}
			if err := m2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A tree checkpointed outside the service, as nyx-net -store … -checkpoint …
// writes it (campaign.CheckpointTo and no service.json), recovers with the
// configuration its header records, not with defaults beside its target and
// worker count.
func TestRecoverCLICheckpointKeepsItsConfig(t *testing.T) {
	st := memStore(t)
	cfg := campaign.Config{Target: "lightftp", Workers: 2, Policy: core.PolicyNone, Seed: 3,
		SyncInterval: 500 * time.Millisecond, SnapBudget: 8 << 20, SyncMode: campaign.SyncAsync}
	c, err := campaign.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointTo(st, DefaultPrefix+"/cli"); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Store: st})
	recovered, err := m.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover = %+v, %v; want the one CLI campaign", recovered, err)
	}
	want := Spec{ID: "cli", Duration: c.Elapsed(), Config: cfg}
	if got := recovered[0]; got.State != StateStored || !reflect.DeepEqual(got.Spec, want) {
		t.Fatalf("recovered %s as %+v\n  spec %+v\n  want %+v", got.ID, got, got.Spec, want)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Every other field comes back too, and the configurations below and
	// above set each of them.
	others := []campaign.Config{
		{Target: "tinydtls", Workers: 1, Policy: core.PolicyBalanced, Seed: 9, SyncInterval: 250 * time.Millisecond,
			Sched: core.SchedRoundRobin, Asan: true, SyncMode: campaign.SyncLockstep},
		{Target: "dnsmasq", Workers: 1, Policy: core.PolicyAggressive, Seed: -4, SyncInterval: time.Second,
			Power: core.PowerCoe, SnapBudget: 1 << 20, SyncMode: campaign.SyncAsync},
	}
	set := reflect.New(reflect.TypeFor[campaign.Config]()).Elem()
	for _, cfg := range append(others, cfg) {
		v := reflect.ValueOf(cfg)
		for i := range v.NumField() {
			if set.Type().Field(i).IsExported() && !v.Field(i).IsZero() {
				set.Field(i).Set(v.Field(i))
			}
		}
	}
	for i := range set.NumField() {
		if f := set.Type().Field(i); f.IsExported() && set.Field(i).IsZero() {
			t.Errorf("no configuration sets Config.%s", f.Name)
		}
	}
	for _, cfg := range others {
		st := memStore(t)
		c, err := campaign.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckpointTo(st, DefaultPrefix+"/cli"); err != nil {
			t.Fatal(err)
		}
		m := New(Config{Store: st})
		recovered, err := m.Recover()
		if err != nil || len(recovered) != 1 {
			t.Fatalf("Recover = %+v, %v; want the one CLI campaign", recovered, err)
		}
		if got := recovered[0].Spec.Config; !reflect.DeepEqual(got, cfg) {
			t.Errorf("recovered the configuration %+v, want %+v", got, cfg)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A service.json that holds a whole spec, as earlier versions wrote it,
// still recovers: the budget comes from it, the configuration from the
// manifest even where the two disagree, and the campaign resumes with the
// manifest's.
func TestRecoverTakesConfigFromManifest(t *testing.T) {
	st := memStore(t)
	cfg := campaign.Config{Target: "lightftp", Workers: 2, Policy: core.PolicyNone, Seed: 3,
		SyncInterval: 500 * time.Millisecond}
	c, err := campaign.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tree, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	tree[budgetKey] = []byte(`{"id":"old","target":"lightftp","duration_ns":9000000000,"workers":2,` +
		`"policy":"balanced","sched":"rr","seed":3,"sync_interval_ns":500000000}`)
	if err := st.PutTree(DefaultPrefix+"/old", tree); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Store: st})
	defer m.Close()
	recovered, err := m.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover = %+v, %v; want the one campaign", recovered, err)
	}
	want := Spec{ID: "old", Duration: 9 * time.Second, Config: cfg}
	if got := recovered[0].Spec; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered the spec %+v, want %+v", got, want)
	}
	if _, err := m.Resume("old", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pause("old"); err != nil {
		t.Fatal(err)
	}
	if got, err := m.CampaignStatus("old"); err != nil || !reflect.DeepEqual(got.Spec, want) {
		t.Fatalf("resumed with the spec %+v, %v; want %+v", got.Spec, err, want)
	}
}

// A manager closed while it lists the store still names every damaged tree
// it has met, beside the closed manager.
func TestRecoverAfterCloseKeepsSkippedErrors(t *testing.T) {
	st := memStore(t)
	if err := st.PutTree(DefaultPrefix+"/a", store.Tree{campaign.ManifestFile: []byte("{")}); err != nil {
		t.Fatal(err)
	}
	c, err := campaign.New(campaign.Config{Target: "lightftp", SyncInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointTo(st, DefaultPrefix+"/b"); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Store: st})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := m.Recover()
	if len(recovered) != 0 || !errors.Is(err, errClosed) || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("Recover = %+v, %v; want no campaigns and an error naming a and the closed manager", recovered, err)
	}
}
