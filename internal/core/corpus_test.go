package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/guest"
	"repro/internal/spec"
)

// corpusFuzzer builds a fuzzer whose queue and crash list can be populated
// directly (SaveCorpus only reads those).
func corpusFuzzer() (*Fuzzer, *spec.Spec, *spec.Input) {
	s, in := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{Rand: rand.New(rand.NewSource(1))})
	return f, s, in
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"segfault":       "segfault",
		"heap-overflow":  "heap-overflow",
		"use after 9":    "use_after_9",
		"Heap/Overflow!": "_eap__verflow_",
		"../../escape":   "______escape",
	} {
		if got := sanitize(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Crash filenames built from hostile crash kinds must stay path-safe and
// the serialized inputs must round-trip.
func TestCrashFilenamesSanitized(t *testing.T) {
	dir := t.TempDir()
	f, _, in := corpusFuzzer()
	f.Crashes = append(f.Crashes, Crash{
		Kind:  guest.CrashKind("Heap Overflow/../../escape!"),
		Msg:   "synthetic",
		Input: in,
	})
	if err := f.SaveCorpus(dir); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "crashes", "*.nyx"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("crash files = %v (%v), want exactly one", matches, err)
	}
	name := filepath.Base(matches[0])
	if filepath.Clean(filepath.Join(dir, "crashes", name)) != matches[0] {
		t.Fatalf("unsafe crash filename %q", name)
	}
	for _, r := range name {
		ok := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') ||
			r == '-' || r == '_' || r == '.'
		if !ok {
			t.Fatalf("crash filename %q contains %q", name, r)
		}
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d inputs, want 1", len(loaded))
	}
	if len(loaded[0].Ops) != len(in.Ops) {
		t.Fatal("crash input did not round-trip")
	}
}

// Queue and crash inputs round-trip together; LoadCorpus walks both
// subdirectories in deterministic order.
func TestSaveLoadQueueAndCrashes(t *testing.T) {
	dir := t.TempDir()
	f, s, in := corpusFuzzer()
	for i := 0; i < 3; i++ {
		cp := in.Clone()
		cp.Ops[1].Data = []byte{byte('x' + i)}
		f.Queue = append(f.Queue, &QueueEntry{ID: i, Input: cp})
	}
	f.Crashes = append(f.Crashes, Crash{Kind: guest.CrashKind("segfault"), Input: in})
	if err := f.SaveCorpus(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 4 {
		t.Fatalf("loaded %d inputs, want 4 (3 queue + 1 crash)", len(loaded))
	}
	for i, l := range loaded {
		if err := s.Validate(l); err != nil {
			t.Fatalf("loaded input %d invalid: %v", i, err)
		}
	}
	// Loading twice yields identical bytes (deterministic order).
	again, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loaded {
		if string(spec.Serialize(loaded[i])) != string(spec.Serialize(again[i])) {
			t.Fatalf("load order not deterministic at %d", i)
		}
	}
}

// Corrupt files are skipped as long as something loads; an all-corrupt
// corpus surfaces the first decode error.
func TestLoadCorpusCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	f, _, in := corpusFuzzer()
	f.Queue = append(f.Queue, &QueueEntry{ID: 0, Input: in})
	if err := f.SaveCorpus(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "queue", "id-999999.nyx"), []byte("not bytecode"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "queue", "README.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d inputs, want 1 (corrupt + non-.nyx skipped)", len(loaded))
	}

	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "only.nyx"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(bad); err == nil {
		t.Fatal("all-corrupt corpus must error")
	}
}

// FileID names the queue file EncodeQueue writes an entry under: a restored
// seed the first Step has yet to import under its index among the seeds,
// then, once it re-queues, under its queue ID; a seed that did not re-queue,
// and an entry the fuzzer never had, under none.
func TestFileIDNamesEncodeQueueFile(t *testing.T) {
	s, in := stubSpecInput()
	restored := make([]*QueueEntry, 3)
	for i := range restored {
		restored[i] = &QueueEntry{Input: in.Clone()}
	}
	f := New(&stubExec{loc: 1}, s, Options{Rand: rand.New(rand.NewSource(1)), Restored: restored})
	files := func() map[string][]byte {
		tree := map[string][]byte{}
		f.EncodeQueue(tree, "")
		return tree
	}
	for i, e := range restored {
		if id, ok := f.FileID(e); !ok || id != i || files()[fmt.Sprintf("queue/id-%06d.nyx", id)] == nil {
			t.Fatalf("seed %d before the first Step: FileID %d, %v", i, id, ok)
		}
	}
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	// Every run hits the same edge: only the first seed re-queues.
	if len(f.Queue) != 1 || f.Queue[0] != restored[0] {
		t.Fatalf("queue %v after the first Step (test premise broken)", f.Queue)
	}
	if id, ok := f.FileID(restored[0]); !ok || id != 0 {
		t.Fatalf("re-queued seed: FileID %d, %v", id, ok)
	}
	for _, e := range append(restored[1:], &QueueEntry{Input: in}) {
		if id, ok := f.FileID(e); ok {
			t.Fatalf("an entry the queue does not hold is filed under %d", id)
		}
	}
}
