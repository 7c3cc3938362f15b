package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/store"
)

// queueFiles returns a tree's worker-NNN/queue/ keys in order.
func queueFiles(tree store.Tree) []string {
	var keys []string
	for k := range tree {
		if strings.Contains(k, "/queue/") {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// A campaign checkpointed after a resume and before its first round — what
// the service does when a recovered campaign is paused, or the process is
// closed, before its first slice — still holds its corpus as seeds waiting
// for the first Step: the second tree must carry the first one's queue
// inputs, scheduler metadata and power state, in order, not empty queues.
func TestCheckpointBeforeFirstRoundKeepsRestoredCorpus(t *testing.T) {
	cfg := Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond, Power: core.PowerFast}
	first, err := run(t, cfg, 2*time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResumeTree(maps.Clone(first))
	if err != nil {
		t.Fatal(err)
	}
	second, err := res.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	files := queueFiles(first)
	if len(files) < 100 || !slices.Equal(queueFiles(second), files) {
		t.Fatalf("first tree has %d queue files, the tree taken before the first round %d", len(files), len(queueFiles(second)))
	}
	for _, k := range files {
		if !bytes.Equal(first[k], second[k]) {
			t.Fatalf("%s differs between the two trees", k)
		}
	}
	for id := 0; id < cfg.Workers; id++ {
		k := workerDir(id) + "/" + core.SchedStateFile
		if !bytes.Equal(first[k], second[k]) {
			t.Fatalf("%s (scheduler metadata and power state) differs between the two trees", k)
		}
	}
	// The campaign resumed from the second tree fuzzes the saved corpus, not
	// the bundled seeds.
	res2, err := ResumeTree(second)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.RunFor(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	queued := 0
	for _, st := range res2.PerWorker() {
		queued += st.Queue
	}
	if queued < len(files)*9/10 {
		t.Fatalf("campaign resumed from the second tree queued %d entries of %d saved", queued, len(files))
	}
}

// A checkpoint is written whole, so a queue file that does not decode is a
// damaged checkpoint: the resume fails naming the key, it does not go on with
// a silently smaller corpus (the rule for a shared seed folder, which
// core.DecodeCorpus keeps).
func TestResumeRejectsCorruptQueueFile(t *testing.T) {
	tree, err := run(t, testCfg(2, 12), time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	files := queueFiles(tree)
	victim := files[len(files)/2]
	for name, bad := range map[string][]byte{
		"truncated": tree[victim][:len(tree[victim])-1],
		"not bytes": []byte("not bytecode"),
	} {
		damaged := maps.Clone(tree)
		damaged[victim] = bad
		if _, err := ResumeTree(damaged); err == nil || !strings.Contains(err.Error(), victim) {
			t.Errorf("%s: err = %v, want one naming %s", name, err, victim)
		}
	}
	missing := maps.Clone(tree)
	delete(missing, workerDir(1)+"/"+core.SchedStateFile)
	if _, err := ResumeTree(missing); err == nil || !strings.Contains(err.Error(), core.SchedStateFile) {
		t.Errorf("tree without worker 1's %s: err = %v", core.SchedStateFile, err)
	}
	for _, key := range []string{brokerFile, virginFile, ManifestFile} {
		missing := maps.Clone(tree)
		delete(missing, key)
		if _, err := ResumeTree(missing); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("tree without %s: err = %v", key, err)
		}
	}
}

// smallSections returns the three decoded sections of a real checkpoint cut
// down to a few entries each, so that a test can afford to decode them once
// per byte offset: every sequence keeps elements, every field a real value.
func smallSections(t *testing.T) (header, brokerBin, sched []byte) {
	t.Helper()
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond, Power: core.PowerFast}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	tree = editBroker(t, tree, func(b *broker) {
		if len(b.corpus) < 3 || len(b.crashes) < 2 || b.topRatedCount() < 3 {
			t.Fatalf("checkpoint too small to cut down: %d corpus, %d crashes, %d claims", len(b.corpus), len(b.crashes), b.topRatedCount())
		}
		b.corpus, b.crashes = b.corpus[:3], b.crashes[:2]
		for _, be := range b.corpus {
			be.Entry.Cov = be.Entry.Cov[:min(4, len(be.Entry.Cov))]
		}
		kept := 0
		for si := range b.shards {
			for idx := range b.shards[si].topRated {
				if kept++; kept > 3 {
					delete(b.shards[si].topRated, idx)
				}
			}
		}
		b.pending[1] = []importItem{{input: b.corpus[0].Entry.Input, globalFav: true}}
	})
	metas, power, err := core.DecodeSchedState(tree[workerDir(0)+"/"+core.SchedStateFile])
	if err != nil {
		t.Fatal(err)
	}
	for len(power.EdgePicks) > 3 {
		for idx := range power.EdgePicks {
			delete(power.EdgePicks, idx)
			break
		}
	}
	var w guest.StateWriter
	core.EncodeSchedState(&w, metas[:3], power)
	return tree[ManifestFile], tree[brokerFile], w.Bytes()
}

// TestCheckpointDecodeBoundsCounts overwrites every byte offset of each
// checkpoint section with a count of four billion and decodes the result.
// Where the offset falls in a count, a length, a boolean, a worker or an edge
// the decode fails; where it falls in free bytes (a payload, a timestamp, a
// key) it may succeed, and then the section encodes back to itself. Either
// way no count sized an allocation: all the corrupt decodes together allocate
// within 16 MiB of what as many decodes of the section itself do (a decoded
// broker is a megabyte of virgin-map shards before it holds anything).
func TestCheckpointDecodeBoundsCounts(t *testing.T) {
	header, brokerBin, sched := smallSections(t)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, sec := range []struct {
		name     string
		raw      []byte
		reencode func(raw []byte) ([]byte, error)
	}{
		{ManifestFile, header, func(raw []byte) ([]byte, error) {
			_, err := ReencodeManifest(raw)
			return raw, err // JSON has no one spelling; FuzzCheckpointDecode checks its fixed point
		}},
		{brokerFile, brokerBin, func(raw []byte) ([]byte, error) { return ReencodeBroker(raw, 2) }},
		{core.SchedStateFile, sched, ReencodeSched},
	} {
		honest := allocated(func() {
			if again, err := sec.reencode(sec.raw); err != nil || !bytes.Equal(again, sec.raw) {
				t.Fatalf("%s: the section itself does not decode to itself: %v", sec.name, err)
			}
		})
		decodes, failed := len(sec.raw)-3, 0
		corrupt := allocated(func() {
			for off := 0; off < decodes; off++ {
				bad := bytes.Clone(sec.raw)
				binary.LittleEndian.PutUint32(bad[off:], 0xf0000000)
				again, err := sec.reencode(bad)
				if err != nil {
					failed++
				} else if !bytes.Equal(again, bad) {
					t.Fatalf("%s: with offset %d overwritten the section decodes but does not re-encode to itself", sec.name, off)
				}
			}
		})
		t.Logf("%s: %d bytes, %d of %d corrupt decodes failed", sec.name, len(sec.raw), failed, decodes)
		if failed == 0 {
			t.Errorf("%s: none of %d corrupt sections was refused", sec.name, decodes)
		}
		if limit := uint64(decodes)*(honest+uint64(len(sec.raw))) + 16<<20; corrupt > limit {
			t.Errorf("%s: decoding %d corrupt sections allocated %d MiB, as many honest decodes %d MiB",
				sec.name, decodes, corrupt>>20, (limit-16<<20)>>20)
		}
	}
}

// TestCheckpointResumeAllocsPerEntry pins what a checkpoint and a resume cost
// as counts: allocations per queue entry against mem://, on a campaign large
// enough that the per-campaign work (VM launches, maps, the header) is small
// change. At the last commit that wrote JSON manifests the same campaign read
// 12.9 and 40.0. The checkpoint also hashes nothing: every live entry was
// keyed when it was published.
func TestCheckpointResumeAllocsPerEntry(t *testing.T) {
	c := run(t, Config{Target: "bftpd", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond, SnapBudget: 4 << 20}, 2*time.Second)
	entries := 0
	for _, st := range c.PerWorker() {
		entries += st.Queue
	}
	if entries < 500 {
		t.Fatalf("campaign queued %d entries, the bound needs 500 or more", entries)
	}
	st, err := store.Open(fmt.Sprintf("mem://allocs-%d", time.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := testing.AllocsPerRun(5, func() {
		if err := c.CheckpointTo(st, "ckpt"); err != nil {
			t.Fatal(err)
		}
	}) / float64(entries)
	resume := testing.AllocsPerRun(5, func() {
		if _, err := ResumeFrom(st, "ckpt"); err != nil {
			t.Fatal(err)
		}
	}) / float64(entries)
	t.Logf("%d queue entries: CheckpointTo %.1f, ResumeFrom %.1f allocations per entry", entries, ckpt, resume)
	if ckpt > 6 || resume > 12 {
		t.Fatalf("CheckpointTo %.1f and ResumeFrom %.1f allocations per queue entry, want at most 6 and 12", ckpt, resume)
	}

	// Give every published entry another input behind its key's back: a
	// checkpoint that hashed would now write different keys.
	want := make(map[int][]string)
	other := c.workers[0].fz.Queue[0].Input
	for _, w := range c.workers {
		for _, e := range w.fz.Queue {
			want[w.id] = append(want[w.id], e.Key())
			if e.Input == other {
				e.Input = c.workers[0].fz.Queue[1].Input
			} else {
				e.Input = other
			}
		}
	}
	tree, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range c.workers {
		metas, _, err := core.DecodeSchedState(tree[workerDir(w.id)+"/"+core.SchedStateFile])
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range metas {
			if m.Key != want[w.id][i] {
				t.Fatalf("worker %d entry %d: the checkpoint re-hashed an entry that was already published", w.id, i)
			}
		}
	}
}
