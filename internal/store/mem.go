package store

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// memRegistry shares buckets by name across Open calls, so "mem://jobs"
// addresses the same objects from anywhere in the process — the in-process
// stand-in for a remote object store (same URL-configured destination UX,
// no network). State lives for the lifetime of the process only.
var memRegistry = struct {
	sync.Mutex
	buckets map[string]*memBucket
}{buckets: map[string]*memBucket{}}

// memBucket is one bucket's key space. A tree written by PutTree is kept
// whole under its name, keyed relative to it, its values cut from one slab:
// storing one costs a map and one copy of all its bytes, and nothing per
// key or file. Reading one costs a map and a copy of each file, kept per
// file because a reader may hold on to a few files of a large tree (see the
// package comment). The keys of a tree loosen dissolves live in objects,
// their values still in the tree's slab. No loose key lies under a stored
// tree's prefix and no stored tree under another's, so every key has one
// home.
type memBucket struct {
	mu      sync.RWMutex
	objects map[string][]byte
	trees   map[string]Tree
}

// memStore is the remote-style backend: a handle on one named bucket.
type memStore struct {
	bucket *memBucket
	rawurl string
}

func openMem(name, rawurl string) (Storer, error) {
	if name == "" || strings.HasPrefix(name, "/") {
		return nil, fmt.Errorf("store: %s: empty bucket name", rawurl)
	}
	memRegistry.Lock()
	defer memRegistry.Unlock()
	b, ok := memRegistry.buckets[name]
	if !ok {
		b = &memBucket{objects: map[string][]byte{}, trees: map[string]Tree{}}
		memRegistry.buckets[name] = b
	}
	return &memStore{bucket: b, rawurl: rawurl}, nil
}

func (m *memStore) URL() string { return m.rawurl }

// under reports whether key lies below dir, i.e. starts with dir + "/".
func under(key, dir string) bool {
	return len(key) > len(dir) && key[len(dir)] == '/' && key[:len(dir)] == dir
}

// home returns the map key lives in and its key there: the stored tree
// whose prefix covers it, else the loose objects.
func (b *memBucket) home(key string) (map[string][]byte, string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			if t, ok := b.trees[key[:i]]; ok {
				return t, key[i+1:]
			}
		}
	}
	return b.objects, key
}

func (m *memStore) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	m.bucket.mu.RLock()
	defer m.bucket.mu.RUnlock()
	objs, k := m.bucket.home(key)
	data, ok := objs[k]
	if !ok {
		return nil, fmt.Errorf("store: get %q: %w", key, ErrNotExist)
	}
	return bytes.Clone(data), nil
}

func (m *memStore) List(prefix string) ([]string, error) {
	m.bucket.mu.RLock()
	defer m.bucket.mu.RUnlock()
	var keys []string
	for k := range m.bucket.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	for name, t := range m.bucket.trees {
		dir := name + "/"
		if !strings.HasPrefix(dir, prefix) && !strings.HasPrefix(prefix, dir) {
			continue
		}
		for rel := range t {
			if k := dir + rel; strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// loosen dissolves every stored tree above or below name into loose objects,
// so that what lies under name is loose objects and trees[name], no more.
// Caller holds the write lock.
func (b *memBucket) loosen(name string) {
	for other, t := range b.trees {
		if under(other, name) || under(name, other) {
			for rel, data := range t {
				b.objects[other+"/"+rel] = data
			}
			delete(b.trees, other)
		}
	}
}

// clear removes every key under name. Caller holds the write lock.
func (b *memBucket) clear(name string) {
	b.loosen(name)
	delete(b.trees, name)
	for k := range b.objects {
		if under(k, name) {
			delete(b.objects, k)
		}
	}
}

// PutTree swaps the tree in under the bucket lock: validation and the copy
// of t happen before any existing key is touched, so a failed call leaves
// the previous tree untouched and readers never observe a partial mix of
// generations. The copy is one slab for the whole tree, each value cut to
// its own capacity.
func (m *memStore) PutTree(name string, t Tree) error {
	if err := validTree(name, t); err != nil {
		return err
	}
	size := 0
	for _, v := range t {
		size += len(v)
	}
	slab := make([]byte, 0, size)
	fresh := make(Tree, len(t))
	for k, v := range t {
		slab = append(slab, v...)
		fresh[k] = slab[len(slab)-len(v) : len(slab) : len(slab)]
	}
	m.bucket.mu.Lock()
	defer m.bucket.mu.Unlock()
	m.bucket.clear(name)
	m.bucket.trees[name] = fresh
	return nil
}

func (m *memStore) GetTree(name string) (Tree, error) {
	if err := validKey(name); err != nil {
		return nil, err
	}
	m.bucket.mu.Lock() // loosen may re-file keys
	defer m.bucket.mu.Unlock()
	m.bucket.loosen(name)
	stored := m.bucket.trees[name]
	t := make(Tree, len(stored))
	for k, v := range stored {
		t[k] = bytes.Clone(v)
	}
	for k, v := range m.bucket.objects { // keys of dissolved trees make up a tree all the same
		if under(k, name) {
			t[k[len(name)+1:]] = bytes.Clone(v)
		}
	}
	if len(t) == 0 {
		return nil, fmt.Errorf("store: get tree %q: %w", name, ErrNotExist)
	}
	return t, nil
}

func (m *memStore) DeleteTree(name string) error {
	if err := validKey(name); err != nil {
		return err
	}
	m.bucket.mu.Lock()
	defer m.bucket.mu.Unlock()
	m.bucket.clear(name)
	return nil
}
