package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// tmpPrefix names the temporary sibling directories PutTree stages a
	// tree in before the swap (kept from campaign.Checkpoint so stale
	// debris from older versions is swept too).
	tmpPrefix = ".checkpoint-"
	// oldSuffix names the parked previous tree during the swap.
	oldSuffix = ".old"
	// staleAfter is how old a temp directory must be before the open-time
	// sweep reclaims it, so a concurrent writer's in-flight temp dir in a
	// shared root is never mistaken for debris.
	staleAfter = time.Hour
)

// dirStore keeps objects as files under a root directory. Tree replacement
// is near-atomic: the new tree is staged in a tmpPrefix sibling, the old
// tree is parked at name+".old", the staged tree is renamed in, and the
// parked copy is removed. A crash leaves either the old tree (possibly
// still parked, which GetTree recovers) or the new one — never a mix.
type dirStore struct {
	root   string
	rawurl string
	// swap serializes the rename dance so two concurrent PutTree calls
	// to the same name cannot interleave their park/rename steps.
	swap sync.Mutex
}

func openDir(root, rawurl string) (Storer, error) {
	if root == "" {
		return nil, fmt.Errorf("store: %s: empty directory path", rawurl)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %s: %w", rawurl, err)
	}
	d := &dirStore{root: root, rawurl: rawurl}
	d.sweepStaleTemps()
	return d, nil
}

// ForDir maps a plain directory that holds (or will hold) one tree onto the
// dir backend: the store root is the directory's parent, the tree name its
// base — the layout a checkpoint directory has always had (sibling temp-dir
// staging, name+".old" parking).
func ForDir(dir string) (Storer, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, "", fmt.Errorf("store: %w", err)
	}
	st, err := Open("dir://" + filepath.Dir(abs))
	if err != nil {
		return nil, "", err
	}
	return st, filepath.Base(abs), nil
}

// sweepStaleTemps removes abandoned staging directories: a crash between
// PutTree's staging and swap strands a tmpPrefix dir that nothing would
// ever reclaim. Only temps older than staleAfter go, so an in-flight
// checkpoint from a concurrent process survives the sweep.
func (d *dirStore) sweepStaleTemps() {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < staleAfter {
			continue
		}
		os.RemoveAll(filepath.Join(d.root, e.Name())) //nolint:errcheck // best-effort cleanup
	}
}

func (d *dirStore) URL() string { return d.rawurl }

func (d *dirStore) path(key string) string {
	return filepath.Join(d.root, filepath.FromSlash(key))
}

func (d *dirStore) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(d.path(key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: get %q: %w", key, ErrNotExist)
	}
	if err != nil {
		return nil, fmt.Errorf("store: get %q: %w", key, err)
	}
	return data, nil
}

func (d *dirStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(d.root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := de.Name()
		if de.IsDir() {
			// Skip the backends' own bookkeeping: staging dirs and
			// parked previous trees are not part of the key space.
			if p != d.root && (strings.HasPrefix(name, tmpPrefix) || strings.HasSuffix(name, oldSuffix)) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: list %q: %w", prefix, err)
	}
	sort.Strings(keys)
	return keys, nil
}

func (d *dirStore) PutTree(name string, t Tree) error {
	if err := validTree(name, t); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(d.root, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: put tree %q: %w", name, err)
	}
	defer os.RemoveAll(tmp)
	for _, key := range sortedKeys(t) {
		p := filepath.Join(tmp, filepath.FromSlash(key))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return fmt.Errorf("store: put tree %q: %w", name, err)
		}
		if err := os.WriteFile(p, t[key], 0o644); err != nil {
			return fmt.Errorf("store: put tree %q: %w", name, err)
		}
	}

	d.swap.Lock()
	defer d.swap.Unlock()
	dest := d.path(name)
	if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
		return fmt.Errorf("store: put tree %q: %w", name, err)
	}
	old := dest + oldSuffix
	if _, err := os.Stat(dest); err == nil {
		if err := os.RemoveAll(old); err != nil {
			return fmt.Errorf("store: put tree %q: %w", name, err)
		}
		if err := os.Rename(dest, old); err != nil {
			return fmt.Errorf("store: put tree %q: %w", name, err)
		}
	} else {
		// No current tree to park; drop any .old leftover so a resumed
		// writer does not fall back to a two-generations-stale copy.
		os.RemoveAll(old) //nolint:errcheck // best-effort cleanup
	}
	if err := os.Rename(tmp, dest); err != nil {
		return fmt.Errorf("store: put tree %q: %w", name, err)
	}
	os.RemoveAll(old) //nolint:errcheck // best-effort cleanup of the parked copy
	return nil
}

// GetTree holds the swap lock for the whole read, so a concurrent PutTree
// cannot rename the tree away while it is walked: one generation, whole.
func (d *dirStore) GetTree(name string) (Tree, error) {
	if err := validKey(name); err != nil {
		return nil, err
	}
	d.swap.Lock()
	defer d.swap.Unlock()
	dest := d.path(name)
	if _, err := os.Stat(dest); os.IsNotExist(err) {
		// A crash between PutTree's two renames leaves only the parked
		// copy; complete the interrupted swap by promoting it back.
		old := dest + oldSuffix
		if _, operr := os.Stat(old); operr != nil {
			return nil, fmt.Errorf("store: get tree %q: %w", name, ErrNotExist)
		}
		if err := os.Rename(old, dest); err != nil {
			return nil, fmt.Errorf("store: get tree %q: recovering parked copy: %w", name, err)
		}
	}

	t := Tree{}
	err := filepath.WalkDir(dest, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(dest, p)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		t[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: get tree %q: %w", name, err)
	}
	return t, nil
}

func (d *dirStore) DeleteTree(name string) error {
	if err := validKey(name); err != nil {
		return err
	}
	d.swap.Lock()
	defer d.swap.Unlock()
	dest := d.path(name)
	if err := os.RemoveAll(dest); err != nil {
		return fmt.Errorf("store: delete tree %q: %w", name, err)
	}
	if err := os.RemoveAll(dest + oldSuffix); err != nil {
		return fmt.Errorf("store: delete tree %q: %w", name, err)
	}
	return nil
}
