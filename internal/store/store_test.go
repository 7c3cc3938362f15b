package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// backends returns one fresh store per backend, keyed by scheme. Each mem
// bucket name is unique per test so the process-wide registry cannot leak
// state across tests.
func backends(t *testing.T) map[string]Storer {
	t.Helper()
	out := map[string]Storer{}
	for scheme, url := range map[string]string{
		"dir": "dir://" + filepath.Join(t.TempDir(), "root"),
		"mem": fmt.Sprintf("mem://bucket-%s-%d", t.Name(), time.Now().UnixNano()),
	} {
		st, err := Open(url)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out[scheme] = st
	}
	return out
}

func TestOpenRejectsBadURLs(t *testing.T) {
	for _, url := range []string{"", "ftp://x", "dir://", "mem://", "/plain/path"} {
		if _, err := Open(url); err == nil {
			t.Fatalf("Open(%q) succeeded", url)
		}
	}
}

// Every file of a stored tree reads back as one object under the tree's
// name, as a copy, and lists under it until the tree is deleted.
func TestKeyObjectRoundTrip(t *testing.T) {
	for scheme, st := range backends(t) {
		t.Run(scheme, func(t *testing.T) {
			if _, err := st.Get("missing"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Get(missing) = %v, want ErrNotExist", err)
			}
			if err := st.PutTree("a/b", Tree{"c.bin": []byte("payload"), "d.bin": []byte("two")}); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get("a/b/c.bin")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("payload")) {
				t.Fatalf("Get = %q", got)
			}
			// Returned data is a copy, not an aliased buffer.
			got[0] = 'X'
			again, _ := st.Get("a/b/c.bin")
			if !bytes.Equal(again, []byte("payload")) {
				t.Fatal("mutating a Get result corrupted the store")
			}

			keys, err := st.List("a/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a/b/c.bin", "a/b/d.bin"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("List = %v, want %v", keys, want)
			}

			if err := st.DeleteTree("a/b"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get("a/b/c.bin"); !errors.Is(err, ErrNotExist) {
				t.Fatal("a deleted tree's key is still readable")
			}
		})
	}
}

func TestKeyValidation(t *testing.T) {
	for scheme, st := range backends(t) {
		t.Run(scheme, func(t *testing.T) {
			for _, key := range []string{
				"", "/abs", "a//b", "a/./b", "../escape", "a/../../b",
				"back\\slash", ".checkpoint-123/x", "tree.old/x",
			} {
				if err := st.PutTree(key, Tree{"f": []byte("x")}); err == nil {
					t.Fatalf("PutTree(%q) accepted", key)
				}
				if err := st.PutTree("t", Tree{key: []byte("x")}); err == nil {
					t.Fatalf("PutTree with key %q accepted", key)
				}
				if _, err := st.Get(key); err == nil || errors.Is(err, ErrNotExist) {
					t.Fatalf("Get(%q) = %v, want a key error", key, err)
				}
			}
		})
	}
}

func checkpointLikeTree(gen int) Tree {
	return Tree{
		"manifest.json":                  []byte(fmt.Sprintf(`{"version":5,"gen":%d}`, gen)),
		"virgin.bin":                     {0x01, 0x02, byte(gen)},
		"worker-000/queue/id-000001.nyx": []byte(fmt.Sprintf("input-%d", gen)),
		"worker-000/sched.bin":           {0, 0, 0, 0},
	}
}

func TestTreeRoundTripAndReplace(t *testing.T) {
	for scheme, st := range backends(t) {
		t.Run(scheme, func(t *testing.T) {
			if _, err := st.GetTree("ckpt"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("GetTree(missing) = %v, want ErrNotExist", err)
			}
			t1 := checkpointLikeTree(1)
			if err := st.PutTree("ckpt", t1); err != nil {
				t.Fatal(err)
			}
			got, err := st.GetTree("ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, t1) {
				t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, t1)
			}

			// Replacement removes keys of the previous generation that the
			// new tree no longer carries.
			t2 := checkpointLikeTree(2)
			delete(t2, "worker-000/sched.bin")
			if err := st.PutTree("ckpt", t2); err != nil {
				t.Fatal(err)
			}
			got, err = st.GetTree("ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, t2) {
				t.Fatalf("replace mismatch:\n got %v\nwant %v", got, t2)
			}

			// Tree contents are addressable as plain keys too.
			raw, err := st.Get("ckpt/manifest.json")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, t2["manifest.json"]) {
				t.Fatal("tree file not visible through the key space")
			}

			if err := st.DeleteTree("ckpt"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.GetTree("ckpt"); !errors.Is(err, ErrNotExist) {
				t.Fatal("deleted tree still readable")
			}
			if err := st.DeleteTree("ckpt"); err != nil {
				t.Fatalf("double tree delete errored: %v", err)
			}
		})
	}
}

// A tree is the set of keys under its name and nothing more: a tree stored
// further down or further up is part of it, replacing or deleting one takes
// everything below it along, and keys outside it are left alone — on every
// backend alike, however it lays trees out.
func TestTreesAndKeysShareOneKeySpace(t *testing.T) {
	for scheme, st := range backends(t) {
		t.Run(scheme, func(t *testing.T) {
			tree := func(name string) Tree {
				t.Helper()
				got, err := st.GetTree(name)
				if err != nil {
					t.Fatalf("GetTree(%q): %v", name, err)
				}
				return got
			}
			check := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			check("PutTree", st.PutTree("other", Tree{"kept.bin": []byte("kept")}))
			a := checkpointLikeTree(1)
			check("PutTree", st.PutTree("camp/a", a))
			check("PutTree", st.PutTree("camp/l", Tree{"loose.bin": []byte("loose")}))
			up := Tree{"l/loose.bin": []byte("loose")}
			for k, v := range a {
				up["a/"+k] = v
			}
			if got := tree("camp"); !reflect.DeepEqual(got, up) {
				t.Fatalf("GetTree one level up:\n got %v\nwant %v", got, up)
			}
			if got := tree("camp/a/worker-000"); len(got) != 2 || string(got["queue/id-000001.nyx"]) != "input-1" {
				t.Fatalf("GetTree one level down: %v", got)
			}
			keys, err := st.List("camp/a/w")
			check("List", err)
			if want := []string{"camp/a/worker-000/queue/id-000001.nyx", "camp/a/worker-000/sched.bin"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("List = %v, want %v", keys, want)
			}
			if got := tree("camp/a"); !reflect.DeepEqual(got, a) {
				t.Fatalf("a tree read back after reads above and below it: %v", got)
			}

			// A tree stored below another becomes part of it; replacing the
			// upper one takes it along.
			b := checkpointLikeTree(2)
			check("PutTree", st.PutTree("camp/a/nested", b))
			if got := tree("camp/a"); len(got) != len(a)+len(b) || !bytes.Equal(got["nested/virgin.bin"], b["virgin.bin"]) {
				t.Fatalf("a tree stored below a stored tree is not part of it: %v", got)
			}
			if got := tree("camp/a/nested"); !reflect.DeepEqual(got, b) {
				t.Fatalf("nested tree: %v", got)
			}
			check("PutTree", st.PutTree("camp", b))
			if got := tree("camp"); !reflect.DeepEqual(got, b) {
				t.Fatalf("replacing a tree left keys of the trees below it: %v", got)
			}
			if _, err := st.GetTree("camp/a"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("GetTree of a replaced subtree = %v, want ErrNotExist", err)
			}
			check("DeleteTree", st.DeleteTree("camp/worker-000"))
			delete(b, "worker-000/queue/id-000001.nyx")
			delete(b, "worker-000/sched.bin")
			if got := tree("camp"); !reflect.DeepEqual(got, b) {
				t.Fatalf("after deleting a subtree: %v", got)
			}
			check("DeleteTree", st.DeleteTree("camp"))
			keys, err = st.List("")
			check("List", err)
			if !reflect.DeepEqual(keys, []string{"other/kept.bin"}) {
				t.Fatalf("keys left = %v, want only the tree outside camp", keys)
			}
		})
	}
}

// A PutTree that fails — for any reason, at any point — must leave the
// previous tree fully intact: the torn-write contract checkpoints rely on.
func TestTornPutTreeNeverClobbers(t *testing.T) {
	for scheme, st := range backends(t) {
		t.Run(scheme, func(t *testing.T) {
			good := checkpointLikeTree(1)
			if err := st.PutTree("ckpt", good); err != nil {
				t.Fatal(err)
			}
			// Syntactically invalid key: rejected before any write.
			if err := st.PutTree("ckpt", Tree{"../evil": []byte("x")}); err == nil {
				t.Fatal("bad tree accepted")
			}
			// A key that is also another key's directory cannot exist on a
			// filesystem; both backends reject it before mutating.
			conflict := Tree{"a": []byte("file"), "a/b": []byte("child")}
			if err := st.PutTree("ckpt", conflict); err == nil {
				t.Fatal("conflicting tree accepted")
			}
			if scheme == "dir" {
				// A filename past NAME_MAX fails only once staging is
				// underway (it sorts after valid keys, so files were
				// already written) — a genuinely torn write. The swap
				// must never have started.
				torn := checkpointLikeTree(9)
				torn["zz-"+strings.Repeat("x", 300)+".nyx"] = []byte("unwritable")
				if err := st.PutTree("ckpt", torn); err == nil {
					t.Fatal("over-long key accepted")
				}
			}
			if err := st.PutTree("ckpt", Tree{}); err == nil {
				t.Fatal("empty tree accepted")
			}
			got, err := st.GetTree("ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, good) {
				t.Fatalf("previous tree damaged by failed PutTree:\n got %v\nwant %v", got, good)
			}
		})
	}
}

// The Storer contract's generation row: a reader never sees a mix of two
// trees. GetTree, racing a writer that replaces the tree over and over,
// returns one whole generation every time and never an error.
func TestGetTreeSeesOneGeneration(t *testing.T) {
	const files, reads = 40, 300
	gen := func(g int) Tree {
		tree := make(Tree, files)
		for i := 0; i < files; i++ {
			tree[fmt.Sprintf("worker-%03d/queue/id-%06d.nyx", i%2, i)] = []byte(strconv.Itoa(g))
		}
		return tree
	}
	for scheme, st := range backends(t) {
		t.Run(scheme, func(t *testing.T) {
			if err := st.PutTree("ckpt", gen(0)); err != nil {
				t.Fatal(err)
			}
			stop, done := make(chan struct{}), make(chan error, 1)
			go func() {
				for g := 1; ; g++ {
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
					if err := st.PutTree("ckpt", gen(g)); err != nil {
						done <- err
						return
					}
				}
			}()
			mixed, failed := 0, 0
			var firstErr error
			for i := 0; i < reads; i++ {
				got, err := st.GetTree("ckpt")
				if err != nil {
					if failed++; firstErr == nil {
						firstErr = err
					}
					continue
				}
				one := got["worker-000/queue/id-000000.nyx"]
				for _, v := range got {
					if !bytes.Equal(v, one) {
						mixed++
						break
					}
				}
				if len(got) != files {
					mixed++
				}
			}
			close(stop)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if mixed > 0 || failed > 0 {
				t.Fatalf("of %d reads, %d saw a mix of generations and %d failed (first: %v)", reads, mixed, failed, firstErr)
			}
		})
	}
}

// The Storer contract's isolation row: the store keeps its own copy of a
// tree in each direction. Writing into a stored tree's values, adding or
// deleting keys of its map, and writing into a tree GetTree returned change
// nothing a later GetTree returns.
func TestTreesAreIsolatedFromCallers(t *testing.T) {
	for scheme, st := range backends(t) {
		t.Run(scheme, func(t *testing.T) {
			put, want := checkpointLikeTree(1), checkpointLikeTree(1)
			if err := st.PutTree("ckpt", put); err != nil {
				t.Fatal(err)
			}
			for _, v := range put {
				v[0] ^= 0xff
			}
			put["extra.bin"] = []byte("added after PutTree")
			delete(put, "virgin.bin")
			got, err := st.GetTree("ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("writes into a stored tree reached the store:\n got %v\nwant %v", got, want)
			}
			for _, v := range got {
				v[0] ^= 0xff
			}
			got["extra.bin"] = []byte("added to a read tree")
			if again, err := st.GetTree("ckpt"); err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("writes into a read tree reached the store: %v, %v", again, err)
			}
		})
	}
}

func TestCopyTreeAcrossBackends(t *testing.T) {
	b := backends(t)
	src, dst := b["dir"], b["mem"]
	tree := checkpointLikeTree(7)
	if err := src.PutTree("campaigns/c01", tree); err != nil {
		t.Fatal(err)
	}
	if err := CopyTree(dst, src, "campaigns/c01"); err != nil {
		t.Fatal(err)
	}
	got, err := dst.GetTree("campaigns/c01")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tree) {
		t.Fatal("copied tree differs from source")
	}
	if err := CopyTree(dst, src, "campaigns/absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("CopyTree(absent) = %v, want ErrNotExist", err)
	}
}

// A crash between the dir backend's two renames leaves only the parked
// name+".old" copy. GetTree must recover it — the previous checkpoint is
// never lost — and the promoted tree must read back bit-for-bit.
func TestDirCrashBetweenRenamesRecovers(t *testing.T) {
	root := filepath.Join(t.TempDir(), "root")
	st, err := Open("dir://" + root)
	if err != nil {
		t.Fatal(err)
	}
	tree := checkpointLikeTree(3)
	if err := st.PutTree("ckpt", tree); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the old tree is parked, the staged new
	// tree never landed.
	if err := os.Rename(filepath.Join(root, "ckpt"), filepath.Join(root, "ckpt.old")); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetTree("ckpt")
	if err != nil {
		t.Fatalf("parked checkpoint not recovered: %v", err)
	}
	if !reflect.DeepEqual(got, tree) {
		t.Fatal("recovered tree differs from the parked copy")
	}
	if _, err := os.Stat(filepath.Join(root, "ckpt.old")); !os.IsNotExist(err) {
		t.Fatal("parked copy still present after recovery")
	}
	// The recovered tree is a first-class checkpoint again.
	if err := st.PutTree("ckpt", checkpointLikeTree(4)); err != nil {
		t.Fatal(err)
	}
}

// Opening a dir store sweeps stale staging directories (crash debris) but
// leaves fresh ones alone, since they may belong to a live writer.
func TestDirOpenSweepsStaleTemps(t *testing.T) {
	root := filepath.Join(t.TempDir(), "root")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(root, ".checkpoint-stale123")
	fresh := filepath.Join(root, ".checkpoint-fresh456")
	for _, dir := range []string{stale, fresh} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, past, past); err != nil {
		t.Fatal(err)
	}
	st, err := Open("dir://" + root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp dir survived the open sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp dir was swept")
	}
	// Bookkeeping dirs never leak into the key space.
	keys, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("List leaked bookkeeping entries: %v", keys)
	}
}

// Two mem stores opened on the same bucket URL share state — the property
// that makes mem:// behave like one remote destination per bucket.
func TestMemBucketsShared(t *testing.T) {
	url := fmt.Sprintf("mem://shared-%d", time.Now().UnixNano())
	a, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PutTree("t", Tree{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("t/k")
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("second handle sees %q, %v", got, err)
	}
	if tr, err := b.GetTree("t"); err != nil || !reflect.DeepEqual(tr, Tree{"k": []byte("v")}) {
		t.Fatalf("second handle reads tree %v, %v", tr, err)
	}
	other, err := Open(url + "-other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Get("t/k"); !errors.Is(err, ErrNotExist) {
		t.Fatal("distinct buckets share state")
	}
}

// A checkpoint is a tree of a thousand small files, stored and read once per
// stop-and-go cycle. Against mem:// each direction costs the one copy the
// Storer contract requires (the caller keeps its tree; the store's must not
// change under a reader) and nothing else: no key is rebuilt, split or
// re-filed. PutTree copies the whole tree into one slab: it read 1.006
// allocations per file while it cloned each value, and reads 0.007. GetTree
// keeps one copy per file (1.006), on purpose: a resumed campaign keeps some
// of the files it read for as long as it runs, and one slab would keep them
// all.
func TestCheckpointTreeAllocsPerFile(t *testing.T) {
	st, err := Open(fmt.Sprintf("mem://allocs-%d", time.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	const files = 1000
	tree := Tree{"manifest.json": []byte("{}"), "broker.bin": make([]byte, 1<<16)}
	for i := 0; len(tree) < files; i++ {
		tree[fmt.Sprintf("worker-%03d/queue/id-%06d.nyx", i%2, i)] = make([]byte, 300)
	}
	put := testing.AllocsPerRun(10, func() {
		if err := st.PutTree("campaigns/c01", tree); err != nil {
			t.Fatal(err)
		}
	}) / files
	get := testing.AllocsPerRun(10, func() {
		if _, err := st.GetTree("campaigns/c01"); err != nil {
			t.Fatal(err)
		}
	}) / files
	t.Logf("PutTree %.3f and GetTree %.3f allocations per file", put, get)
	// One copy per tree and one per file, plus the maps' buckets.
	if put > 0.05 || get > 1.25 {
		t.Fatalf("PutTree %.3f and GetTree %.3f allocations per file, want one copy per tree and one per file", put, get)
	}
}
