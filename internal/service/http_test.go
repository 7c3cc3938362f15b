package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/store"
)

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, raw := doJSON(t, "GET", base+"/api/campaigns/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d %s", id, resp.StatusCode, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitStateHTTP(t *testing.T, base, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, base, id)
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

// getEvents fetches an event feed (optionally filtered/following) and
// decodes the JSON lines.
func getEvents(t *testing.T, base, id, query string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/api/campaigns/" + id + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: %d", id, resp.StatusCode)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The full API surface: submit, list, status, pause, resume, checkpoint,
// events, delete, plus error statuses.
func TestHTTPAPI(t *testing.T) {
	m := New(Config{Store: memStore(t)})
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp, _ := doJSON(t, "POST", srv.URL+"/api/campaigns", map[string]any{"target": "lightftp"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("durationless submit: %d", resp.StatusCode)
	}
	resp, raw := doJSON(t, "POST", srv.URL+"/api/campaigns", testSpec("web", 4, 30*time.Second))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "web" || st.State != StateRunning {
		t.Fatalf("submitted %+v", st)
	}

	resp, raw = doJSON(t, "GET", srv.URL+"/api/campaigns", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []Status
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "web" {
		t.Fatalf("list %+v", list)
	}

	if resp, _ := doJSON(t, "GET", srv.URL+"/api/campaigns/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost status: %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", srv.URL+"/api/campaigns/ghost/pause", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost pause: %d", resp.StatusCode)
	}

	waitElapsed(t, m, "web", time.Second)
	resp, raw = doJSON(t, "POST", srv.URL+"/api/campaigns/web/pause", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: %d %s", resp.StatusCode, raw)
	}
	if resp, _ = doJSON(t, "POST", srv.URL+"/api/campaigns/web/pause", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double pause: %d", resp.StatusCode)
	}
	resp, raw = doJSON(t, "POST", srv.URL+"/api/campaigns/web/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, raw)
	}
	resp, raw = doJSON(t, "POST", srv.URL+"/api/campaigns/web/resume", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d %s", resp.StatusCode, raw)
	}

	events := getEvents(t, srv.URL, "web", "")
	if len(events) == 0 {
		t.Fatal("empty event feed")
	}
	if events[0].Type != "state" || events[0].State != StateRunning {
		t.Fatalf("first event %+v", events[0])
	}
	cov := getEvents(t, srv.URL, "web", "?type=coverage")
	for _, e := range cov {
		if e.Type != "coverage" {
			t.Fatalf("type filter leaked %+v", e)
		}
	}
	tail := getEvents(t, srv.URL, "web", fmt.Sprintf("?since=%d", events[len(events)-1].Seq+1))
	for _, e := range tail {
		if e.Seq <= events[len(events)-1].Seq {
			t.Fatalf("since filter leaked %+v", e)
		}
	}

	resp, _ = doJSON(t, "DELETE", srv.URL+"/api/campaigns/web", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, _ = doJSON(t, "GET", srv.URL+"/api/campaigns/web", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted status: %d", resp.StatusCode)
	}
}

// follow=1 streams until the campaign reaches a terminal state, then the
// connection closes with the complete feed delivered.
func TestHTTPEventsFollow(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	if _, err := m.Submit(testSpec("f", 6, 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Subscribe while running: the request only returns once the campaign
	// is done, with every event delivered in order.
	events := getEvents(t, srv.URL, "f", "?follow=1")
	var last Event
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		last = e
	}
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("follow ended on %+v, want done state event", last)
	}
}

// The acceptance path: a campaign submitted over HTTP auto-checkpoints to
// a dir:// store; a fresh server pointed at a mem:// copy of the tree
// resumes it with the virtual clock and coverage feed continuing exactly
// where the origin run stopped — and an identically sliced uninterrupted
// run reproduces the pre-checkpoint coverage feed bit-for-bit.
func TestHTTPResumeEquivalenceAcrossStores(t *testing.T) {
	spec := testSpec("eq", 42, 2*time.Second)
	const extended = 4 * time.Second

	// Origin server: dir:// store, auto-checkpointing every virtual second.
	dirSt := dirStore(t)
	m1 := New(Config{Store: dirSt, CheckpointEvery: time.Second})
	srv1 := httptest.NewServer(Handler(m1))
	resp, raw := doJSON(t, "POST", srv1.URL+"/api/campaigns", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	doneB1 := waitStateHTTP(t, srv1.URL, "eq", StateDone)
	feedB1 := getEvents(t, srv1.URL, "eq", "?type=coverage")
	if len(feedB1) == 0 {
		t.Fatal("origin run produced no coverage feed")
	}
	if doneB1.CheckpointedAt != doneB1.Elapsed {
		t.Fatalf("final checkpoint at %v, done at %v", doneB1.CheckpointedAt, doneB1.Elapsed)
	}
	srv1.Close()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// An identically sliced uninterrupted run of the extended duration:
	// its coverage feed must start with exactly the origin run's feed.
	longSpec := spec
	longSpec.Duration = extended
	mRef := New(Config{})
	if _, err := mRef.Submit(longSpec); err != nil {
		t.Fatal(err)
	}
	refDone := waitState(t, mRef, "eq", StateDone)
	feedRef := coverageEvents(allEvents(t, mRef, "eq"))
	if err := mRef.Close(); err != nil {
		t.Fatal(err)
	}
	if len(feedRef) < len(feedB1) {
		t.Fatalf("reference feed has %d points, origin %d", len(feedRef), len(feedB1))
	}
	for i, e := range feedB1 {
		if e.T != feedRef[i].T || e.Edges != feedRef[i].Edges {
			t.Fatalf("coverage feeds diverge at %d: origin (t=%v edges=%d), reference (t=%v edges=%d)",
				i, e.T, e.Edges, feedRef[i].T, feedRef[i].Edges)
		}
	}

	// Migrate the checkpoint dir:// -> mem:// and resume on fresh servers.
	resume := func() (Status, []Event) {
		memSt := memStore(t)
		if err := store.CopyTree(memSt, dirSt, DefaultPrefix+"/eq"); err != nil {
			t.Fatal(err)
		}
		m2 := New(Config{Store: memSt, CheckpointEvery: time.Second})
		recovered, err := m2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) != 1 || recovered[0].ID != "eq" || recovered[0].State != StateStored {
			t.Fatalf("recovered %+v", recovered)
		}
		if recovered[0].Elapsed != doneB1.Elapsed || recovered[0].Edges != doneB1.Edges {
			t.Fatalf("recovered summary (t=%v edges=%d) != origin done (t=%v edges=%d)",
				recovered[0].Elapsed, recovered[0].Edges, doneB1.Elapsed, doneB1.Edges)
		}
		srv2 := httptest.NewServer(Handler(m2))
		defer srv2.Close()
		resp, raw := doJSON(t, "POST", srv2.URL+"/api/campaigns/eq/resume",
			map[string]any{"duration_ns": extended})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resume: %d %s", resp.StatusCode, raw)
		}
		final := waitStateHTTP(t, srv2.URL, "eq", StateDone)
		feed := getEvents(t, srv2.URL, "eq", "?type=coverage")
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
		return final, feed
	}
	finalA, feedA := resume()

	// The resumed feed replays the restored coverage history bit-for-bit
	// (so it shares the origin/reference prefix), then continues monotone.
	if len(feedA) <= len(feedB1) {
		t.Fatalf("resumed feed has %d points, origin had %d — no continuation", len(feedA), len(feedB1))
	}
	for i, e := range feedB1 {
		if e.T != feedA[i].T || e.Edges != feedA[i].Edges {
			t.Fatalf("resumed feed diverges from origin at %d: (t=%v edges=%d) vs (t=%v edges=%d)",
				i, feedA[i].T, feedA[i].Edges, e.T, e.Edges)
		}
	}
	for i := 1; i < len(feedA); i++ {
		if feedA[i].T < feedA[i-1].T || feedA[i].Edges < feedA[i-1].Edges {
			t.Fatalf("resumed feed not monotone at %d: %+v after %+v", i, feedA[i], feedA[i-1])
		}
	}
	if finalA.Elapsed < extended || finalA.Edges < doneB1.Edges {
		t.Fatalf("resumed final (t=%v edges=%d), origin checkpoint (t=%v edges=%d)",
			finalA.Elapsed, finalA.Edges, doneB1.Elapsed, doneB1.Edges)
	}
	// Both runs exhaust the same virtual budget (the exact overshoot past
	// it depends on each epoch's final executions, so only the budget
	// boundary is comparable).
	if refDone.Elapsed < extended {
		t.Fatalf("reference finished at %v, want >= %v", refDone.Elapsed, extended)
	}

	// Resume determinism: a second fresh server resuming the same copied
	// tree reproduces the identical campaign.
	finalB, feedB := resume()
	if finalA.Elapsed != finalB.Elapsed || finalA.Edges != finalB.Edges ||
		finalA.Corpus != finalB.Corpus || finalA.Execs != finalB.Execs {
		t.Fatalf("resumes diverge: %+v vs %+v", finalA, finalB)
	}
	if len(feedA) != len(feedB) {
		t.Fatalf("resume feeds have %d vs %d points", len(feedA), len(feedB))
	}
	for i := range feedA {
		if feedA[i].T != feedB[i].T || feedA[i].Edges != feedB[i].Edges {
			t.Fatalf("resume feeds diverge at %d", i)
		}
	}
}

// A status shows the configuration the campaign runs with: a spec that
// leaves keys out gets the aggressive policy and Config's defaults, and its
// status names them.
func TestHTTPStatusShowsEffectiveConfig(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	resp, raw := doJSON(t, "POST", srv.URL+"/api/campaigns",
		map[string]any{"id": "eff", "target": "lightftp", "duration_ns": 30 * time.Second})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var st struct {
		Spec map[string]any `json:"spec"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{"id": "eff", "policy": "aggressive", "sched": "afl", "power": "off",
		"sync_mode": "lockstep", "workers": 1.0, "sync_interval_ns": float64(campaign.DefaultSyncInterval),
		"snap_budget": 0.0, "asan": false, "seed": 0.0, "duration_ns": float64(30 * time.Second)} {
		if got := st.Spec[key]; got != want {
			t.Errorf("status spec %s = %v, want %v", key, got, want)
		}
	}
}

// A request body over maxSpecBytes is refused with 413, and nothing is
// registered or resumed.
func TestHTTPRefusesOversizedBody(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	big := map[string]any{"id": "big", "target": strings.Repeat("x", 5<<10), "duration_ns": time.Second}
	if resp, raw := doJSON(t, "POST", srv.URL+"/api/campaigns", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d %s", resp.StatusCode, raw)
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("an oversized submit registered %d campaigns", n)
	}
	resp, raw := doJSON(t, "POST", srv.URL+"/api/campaigns/ghost/resume",
		map[string]any{"duration_ns": time.Second, "pad": strings.Repeat("x", 5<<10)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized resume: %d %s", resp.StatusCode, raw)
	}
}
