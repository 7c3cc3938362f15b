package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// EncodeQueue adds the queue to t as <dir>queue/id-NNNNNN.nyx, one file of
// serialized bytecode per entry, named by entry ID — the share-folder files a
// campaign checkpoint keeps per worker (dir is "" or ends in a slash). Seeds
// the first Step has yet to import are corpus too and follow the queue,
// numbered on from it: a fuzzer checkpointed before it ran saves what it got.
// The files are the entries' own bytes (QueueEntry.Bytes): never write them.
// The names are written into one buffer and cut from it, one allocation for
// the whole queue.
func (f *Fuzzer) EncodeQueue(t map[string][]byte, dir string) {
	var names strings.Builder
	names.Grow((len(f.Queue) + len(f.seeds)) * (len(dir) + len("queue/id-000000.nyx")))
	var num [20]byte
	key := func(id int) string { // fmt's <dir>queue/id-%06d.nyx
		start := names.Len()
		names.WriteString(dir)
		names.WriteString("queue/id-")
		for pad := 100000; pad > 1 && id < pad; pad /= 10 {
			names.WriteByte('0')
		}
		names.Write(strconv.AppendInt(num[:0], int64(id), 10))
		names.WriteString(".nyx")
		return names.String()[start:] // a builder only appends: what it held stays put
	}
	for _, e := range f.Queue {
		t[key(e.ID)] = e.Bytes()
	}
	for i, seed := range f.seeds { // empty once the first Step imported them
		t[key(f.nextID+i)] = seed.Bytes()
	}
}

// FileID returns the id EncodeQueue files e under, and whether it files e at
// all: a queued entry under its ID, a seed the first Step has yet to import
// under the queue's length plus its index among the seeds (its ID until
// then). A checkpoint asks it whether an entry it recorded earlier is still
// the one a queue file holds, by identity: nothing is hashed or compared.
func (f *Fuzzer) FileID(e *QueueEntry) (int, bool) {
	if e.ID >= 0 && e.ID < len(f.Queue) && f.Queue[e.ID] == e {
		return e.ID, true
	}
	if e.ID >= 0 && e.ID < len(f.seeds) && f.seeds[e.ID] == e {
		return f.nextID + e.ID, true
	}
	return 0, false
}

// DecodeCorpus deserializes a file tree of .nyx inputs (as EncodeQueue
// writes it, or read back from a store backend) in deterministic
// (sorted-path) order. Non-.nyx entries are ignored; entries that fail to
// decode are skipped, with an error only if nothing loads.
func DecodeCorpus(files map[string][]byte) ([]*spec.Input, error) {
	paths := make([]string, 0, len(files))
	for p := range files {
		if strings.HasSuffix(p, ".nyx") {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var out []*spec.Input
	var firstErr error
	for _, p := range paths {
		in, err := spec.Deserialize(files[p])
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: %s: %w", p, err)
			}
			continue
		}
		out = append(out, in)
	}
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
