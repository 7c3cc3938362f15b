package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// Corrupt files are skipped as long as something decodes, and so are
// files that are not .nyx; an all-corrupt corpus surfaces the first decode
// error.
func TestLoadCorpusCorruptFiles(t *testing.T) {
	s, in := stubSpecInput()
	f := New(&stubExec{loc: 1}, s, Options{Rand: rand.New(rand.NewSource(1))})
	f.Queue = append(f.Queue, &QueueEntry{ID: 0, Input: in})
	tree := map[string][]byte{}
	f.EncodeQueue(tree, "")
	tree["queue/id-999999.nyx"] = []byte("not bytecode")
	tree["queue/README.txt"] = []byte("ignored")
	loaded, err := DecodeCorpus(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("decoded %d inputs, want 1 (corrupt + non-.nyx skipped)", len(loaded))
	}
	if _, err := DecodeCorpus(map[string][]byte{"only.nyx": []byte("junk")}); err == nil {
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
