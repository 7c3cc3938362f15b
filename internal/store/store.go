// Package store is the pluggable corpus/checkpoint storage layer behind
// campaign checkpoints and the service mode: a small object-store contract
// (Storer) over opaque slash-separated keys, plus atomic whole-tree
// replacement for checkpoint directories.
//
// Backends are selected by a source/destination-style URL, mirroring the
// configure-once-then-address-by-path UX of snapshot backup integrations:
//
//	dir:///var/nyx/store    files under a local directory
//	dir://relative/path     same, relative to the working directory
//	mem://bucket            an in-process object store (shared per bucket
//	                        name for the lifetime of the process)
//
// The tree operations carry the durability contract checkpoints rely on:
// after PutTree(name, t) returns, GetTree(name) observes exactly t; if
// PutTree fails or the process dies mid-write, GetTree observes the
// previous tree, complete and unmodified — never a mix, also for a GetTree
// that runs while a PutTree replaces the tree. And each side keeps its own
// copy: writing t after PutTree, or writing a tree GetTree returned, changes
// nothing a later GetTree sees. The dir backend implements this with the
// same temp-then-swap rename dance campaign.Checkpoint historically used
// (and recovers the parked ".old" copy if a crash lands between the two
// renames), holding its swap lock for the whole of a GetTree; the mem
// backend keeps a stored tree whole under its name and swaps it in under
// one lock.
//
// What a tree costs against mem:// is one copy in each direction, made
// differently on purpose. PutTree copies all of a tree's values into one
// slab, one allocation per tree. GetTree copies each file on its own: a
// resumed campaign keeps some files it read (broker.bin and the queue files
// its decoded inputs alias) for as long as it runs and drops the rest, and
// a slab would keep every file alive for as long as any one is.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Tree is an in-memory file tree: relative slash-separated path -> content.
// It is the unit of atomic replacement (one checkpoint = one tree).
type Tree map[string][]byte

// ErrNotExist is wrapped by Get/GetTree when the key or tree is absent.
var ErrNotExist = errors.New("does not exist")

// Storer is a flat object store over opaque keys, written a tree at a time.
// Keys are clean relative slash-separated paths
// ("campaigns/c01/worker-000/sched.bin"); a "tree" named n is simply the set
// of keys under "n/" — however they got there: stored as n, or as trees
// further down or further up — which PutTree replaces atomically.
type Storer interface {
	// Get reads one object (ErrNotExist if absent).
	Get(key string) ([]byte, error)
	// List returns all keys with the given prefix, sorted. An empty
	// prefix lists everything.
	List(prefix string) ([]string, error)

	// PutTree atomically replaces the tree rooted at name with t: after it
	// returns, GetTree(name) sees exactly t; after a failure or crash,
	// GetTree sees the previous tree intact. The store keeps a copy: t
	// stays the caller's.
	PutTree(name string, t Tree) error
	// GetTree reads the tree rooted at name, with contents keyed relative
	// to it (ErrNotExist if absent): one whole generation, as a copy the
	// caller owns.
	GetTree(name string) (Tree, error)
	// DeleteTree removes the tree at name (absent is not an error).
	DeleteTree(name string) error

	// URL returns the configuration string the store was opened from.
	URL() string
}

// Open returns the backend named by a store URL (see the package comment
// for the syntax).
func Open(rawurl string) (Storer, error) {
	switch {
	case strings.HasPrefix(rawurl, "dir://"):
		return openDir(strings.TrimPrefix(rawurl, "dir://"), rawurl)
	case strings.HasPrefix(rawurl, "mem://"):
		return openMem(strings.TrimPrefix(rawurl, "mem://"), rawurl)
	default:
		return nil, fmt.Errorf("store: unknown store URL %q (want dir://PATH or mem://BUCKET)", rawurl)
	}
}

// CopyTree replicates the tree at name from src to dst — the
// checkpoint-migration primitive that lets a campaign checkpointed on one
// backend resume from another.
func CopyTree(dst, src Storer, name string) error {
	t, err := src.GetTree(name)
	if err != nil {
		return fmt.Errorf("store: copy tree %q: %w", name, err)
	}
	if err := dst.PutTree(name, t); err != nil {
		return fmt.Errorf("store: copy tree %q: %w", name, err)
	}
	return nil
}

// validKey rejects keys that could escape the store root or collide with
// the backends' bookkeeping names (temp dirs, parked ".old" copies). It walks
// the key in place: checking a tree costs no allocation per key.
func validKey(key string) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	if strings.HasPrefix(key, "/") || strings.Contains(key, "\\") {
		return fmt.Errorf("store: key %q must be a relative slash path", key)
	}
	for rest, more := key, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		switch {
		case seg == "" || seg == ".":
			return fmt.Errorf("store: key %q has an empty or dot segment", key)
		case seg == "..":
			return fmt.Errorf("store: key %q escapes the store root", key)
		case strings.HasPrefix(seg, tmpPrefix):
			return fmt.Errorf("store: key %q collides with the temp-dir namespace", key)
		case strings.HasSuffix(seg, oldSuffix):
			return fmt.Errorf("store: key %q collides with the parked-copy namespace", key)
		}
	}
	return nil
}

// validTree checks every key of t before any backend mutates state, so a
// syntactically bad tree can never produce a partial write.
func validTree(name string, t Tree) error {
	if err := validKey(name); err != nil {
		return err
	}
	if len(t) == 0 {
		return fmt.Errorf("store: refusing to write empty tree %q", name)
	}
	for key := range t {
		if err := validKey(key); err != nil {
			return err
		}
		// A key that is also a directory of another key ("a" and "a/b")
		// cannot exist on a filesystem backend; reject it everywhere so
		// backends stay interchangeable. validKey has rejected every key
		// whose directories path.Dir would clean, so cutting at each slash
		// finds the same ones.
		for i := strings.LastIndexByte(key, '/'); i >= 0; i = strings.LastIndexByte(key[:i], '/') {
			if _, ok := t[key[:i]]; ok {
				return fmt.Errorf("store: tree %q: key %q conflicts with %q", name, key, key[:i])
			}
		}
	}
	return nil
}

// sortedKeys returns t's keys in deterministic order (backends write files
// in this order so partial failures are reproducible).
func sortedKeys(t Tree) []string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
