package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// storeBackends returns one fresh store per backend kind, keyed by scheme.
func storeBackends(t *testing.T) map[string]store.Storer {
	t.Helper()
	out := map[string]store.Storer{}
	dir, err := store.Open("dir://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out["dir"] = dir
	mem, err := store.Open(fmt.Sprintf("mem://campaign-%s-%d", t.Name(), time.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	out["mem"] = mem
	return out
}

func treesEqual(t *testing.T, label string, want, got store.Tree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: tree has %d keys, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("%s: key %q differs after round trip", label, k)
		}
	}
}

// The checkpoint tree must survive every backend bit-for-bit, and the
// campaign resumed from any backend must behave identically to one resumed
// from the plain checkpoint directory — the property that makes backends
// interchangeable.
func TestCheckpointStoreRoundTrip(t *testing.T) {
	c := run(t, testCfg(2, 21), 2*time.Second)
	want, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want["manifest.json"]; !ok {
		t.Fatal("checkpoint tree has no manifest.json")
	}
	if _, ok := want["virgin.bin"]; !ok {
		t.Fatal("checkpoint tree has no virgin.bin")
	}

	type outcome struct {
		cov, corpus int
		execs       uint64
		elapsed     time.Duration
	}
	var ref *outcome
	for kind, st := range storeBackends(t) {
		if err := c.CheckpointTo(st, "ckpt"); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got, err := st.GetTree("ckpt")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		treesEqual(t, kind, want, got)

		r, err := ResumeFrom(st, "ckpt")
		if err != nil {
			t.Fatalf("%s: resume: %v", kind, err)
		}
		if err := r.RunFor(time.Second); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		o := outcome{cov: r.Coverage(), corpus: r.CorpusSize(), execs: r.Execs(), elapsed: r.Elapsed()}
		if ref == nil {
			ref = &o
			continue
		}
		if o != *ref {
			t.Fatalf("resumed campaigns diverge across backends: %+v vs %+v", o, *ref)
		}
	}
}

// A campaign checkpointed through the plain-directory interface must be
// readable as a dir-store tree and vice versa (the historical on-disk
// layout and the store layout are the same bytes).
func TestCheckpointDirLayoutMatchesStore(t *testing.T) {
	c := run(t, testCfg(1, 22), time.Second)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := checkpointDir(c, dir); err != nil {
		t.Fatal(err)
	}
	want, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("dir://" + filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.GetTree("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	treesEqual(t, "dir layout", want, got)
}

// CopyTree is the migration path: checkpoint on dir://, copy to mem://,
// resume there — and the migrated resume matches the origin resume.
func TestCheckpointMigratesAcrossBackends(t *testing.T) {
	c := run(t, testCfg(2, 23), 2*time.Second)
	be := storeBackends(t)
	if err := c.CheckpointTo(be["dir"], "ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := store.CopyTree(be["mem"], be["dir"], "ckpt"); err != nil {
		t.Fatal(err)
	}
	a, err := ResumeFrom(be["dir"], "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResumeFrom(be["mem"], "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Campaign{a, b} {
		if err := r.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if a.Coverage() != b.Coverage() || a.Execs() != b.Execs() || a.CorpusSize() != b.CorpusSize() {
		t.Fatalf("migrated resume diverged: dir cov=%d execs=%d corpus=%d, mem cov=%d execs=%d corpus=%d",
			a.Coverage(), a.Execs(), a.CorpusSize(), b.Coverage(), b.Execs(), b.CorpusSize())
	}
}

// A failed PutTree must leave the previous checkpoint fully resumable on
// every backend: the torn write never clobbers.
func TestFailedCheckpointNeverClobbers(t *testing.T) {
	c := run(t, testCfg(1, 24), time.Second)
	for kind, st := range storeBackends(t) {
		if err := c.CheckpointTo(st, "ckpt"); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want, err := st.GetTree("ckpt")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}

		// Poison a later checkpoint attempt: an escaping key is rejected by
		// the store before any state mutates.
		bad, err := c.CheckpointTree()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		bad["../escape.bin"] = []byte("x")
		if err := st.PutTree("ckpt", bad); err == nil {
			t.Fatalf("%s: poisoned PutTree succeeded", kind)
		}

		got, err := st.GetTree("ckpt")
		if err != nil {
			t.Fatalf("%s: previous checkpoint unreadable after failed put: %v", kind, err)
		}
		treesEqual(t, kind, want, got)
		if _, err := ResumeFrom(st, "ckpt"); err != nil {
			t.Fatalf("%s: previous checkpoint unresumable after failed put: %v", kind, err)
		}
	}
}

// Summarize reads checkpoint metadata without launching anything.
func TestSummarize(t *testing.T) {
	c := run(t, testCfg(2, 25), 2*time.Second)
	tr, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Config, c.cfg) {
		t.Fatalf("summary %+v", s)
	}
	if s.Elapsed != c.Elapsed() {
		t.Fatalf("summary elapsed %v, campaign %v", s.Elapsed, c.Elapsed())
	}
	if s.Corpus != c.CorpusSize() {
		t.Fatalf("summary corpus %d, campaign %d", s.Corpus, c.CorpusSize())
	}
	if s.Edges == 0 || s.Edges > c.Coverage() {
		t.Fatalf("summary edges %d, campaign coverage %d", s.Edges, c.Coverage())
	}
	if _, err := Summarize(store.Tree{"x": nil}); err == nil {
		t.Fatal("Summarize accepted a tree with no manifest")
	}
}

// Stop is sticky and lands on a sync boundary: a stopped campaign's next
// RunFor is a no-op, and the state at stop is checkpointable/resumable.
func TestStopIsStickyAndCheckpointable(t *testing.T) {
	c := run(t, testCfg(1, 26), time.Second)
	c.Stop()
	if !c.Stopped() {
		t.Fatal("Stopped() false after Stop()")
	}
	before := c.Execs()
	if err := c.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Execs() != before {
		t.Fatal("RunFor made progress after Stop")
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := checkpointDir(c, dir); err != nil {
		t.Fatal(err)
	}
	r, err := resumeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stopped() {
		t.Fatal("resumed campaign inherited the stop flag")
	}
	if err := r.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.Execs() == 0 {
		t.Fatal("resumed campaign made no progress")
	}
}
