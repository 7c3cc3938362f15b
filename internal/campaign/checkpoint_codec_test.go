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
	"repro/internal/spec"
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
		SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe}
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
		SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	tree = editBroker(t, tree, func(b *broker) {
		if len(b.corpus) < 3 || len(b.crashes) < 2 || len(b.topRated) < 3 {
			t.Fatalf("checkpoint too small to cut down: %d corpus, %d crashes, %d claims", len(b.corpus), len(b.crashes), len(b.topRated))
		}
		b.corpus, b.crashes = b.corpus[:3], b.crashes[:2]
		for _, be := range b.corpus {
			be.Entry.Cov = be.Entry.Cov[:min(4, len(be.Entry.Cov))]
		}
		kept := 0
		for idx := range b.topRated {
			if kept++; kept > 3 {
				delete(b.topRated, idx)
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
// broker is a 64 KiB virgin map and its empty maps before it holds anything).
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
// 12.9 and 40.0; before entries kept their bytes and a resume reused
// broker.bin's decoded inputs for the queue files, 3.1 and 9.5; before the
// store copied a tree into one slab and the codec cut names, keys, traces,
// inputs, encodings and claim lists from slabs, 2.1 and 8.6. It reads 0.06
// and 1.41 now, one of which is GetTree's copy of each file (the store keeps
// that per file: see the layout comment). The checkpoint also hashes
// nothing: every live entry was keyed when it was published.
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
	t.Logf("%d queue entries: CheckpointTo %.2f, ResumeFrom %.2f allocations per entry", entries, ckpt, resume)
	if ckpt > 0.2 || resume > 1.5 {
		t.Fatalf("CheckpointTo %.2f and ResumeFrom %.2f allocations per queue entry, want at most 0.2 and 1.5", ckpt, resume)
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

// A queue file with the bytes of one of broker.bin's corpus entries is
// restored as that entry's decoded input with its key, and a seed that
// re-queues keeps both: after a resume and its first round no such seed was
// decoded again or hashed. broker.bin's keys are complemented here, so a seed
// that had hashed its input would carry the real key instead.
func TestResumeHashesNoSharedSeed(t *testing.T) {
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}, 2*time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	complement := func(key string) string {
		b := []byte(key)
		for i := range b {
			b[i] = ^b[i]
		}
		return string(b)
	}
	tree = editBroker(t, tree, func(b *broker) {
		encs := core.MakeEncodings(len(b.corpus))
		for i, be := range b.corpus {
			encs.Set(i, be.Entry, complement(be.Entry.Key()), be.Entry.Bytes())
		}
	})
	res, err := ResumeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	restored := make(map[*spec.Input]bool, len(res.broker.corpus))
	for _, be := range res.broker.corpus {
		restored[be.Entry.Input] = true
	}
	shared := 0
	for _, w := range res.workers {
		for _, e := range w.fz.Queue {
			if !restored[e.Input] {
				continue
			}
			shared++
			if e.Key() != complement(core.InputKey(e.Input)) {
				t.Fatalf("worker %d entry %d holds a corpus entry's input but hashed it", w.id, e.ID)
			}
		}
	}
	if files := len(queueFiles(tree)); shared < files/2 {
		t.Fatalf("%d of %d queue files re-queued with a corpus entry's input (test premise broken)", shared, files)
	}
}

// A queue file one byte away from every corpus entry is decoded and hashed on
// its own, and the scheduler metadata sched.bin holds for its key lands on it
// when worker 0 imports its seeds.
func TestResumeDecodesUnsharedQueueFile(t *testing.T) {
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(tree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeBroker(tree[brokerFile], m.Workers)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0's first queue file re-queues whatever ran before it: no seed
	// runs before it.
	victim := workerDir(0) + "/queue/id-000000.nyx"
	in, err := spec.Deserialize(tree[victim])
	if err != nil {
		t.Fatal(err)
	}
	op := slices.IndexFunc(in.Ops, func(op spec.Op) bool { return len(op.Data) > 0 })
	if op < 0 || !slices.ContainsFunc(b.corpus, func(be brokerEntry) bool { return bytes.Equal(be.Entry.Bytes(), tree[victim]) }) {
		t.Fatal("worker 0's first queue file carries no payload or is no corpus entry's (test premise broken)")
	}
	in = in.Clone()
	in.Ops[op].Data = append([]byte{^in.Ops[op].Data[0]}, in.Ops[op].Data[1:]...)
	enc := spec.Serialize(in)
	if slices.ContainsFunc(b.corpus, func(be brokerEntry) bool { return bytes.Equal(be.Entry.Bytes(), enc) }) {
		t.Fatal("the flipped file is a corpus entry's (test premise broken)")
	}
	metas, power, err := core.DecodeSchedState(tree[workerDir(0)+"/"+core.SchedStateFile])
	if err != nil {
		t.Fatal(err)
	}
	metas[0] = core.EntryMeta{Key: core.InputKey(in), Depth: 7, Picked: 12345, Trimmed: true, Dominated: true}
	var w guest.StateWriter
	core.EncodeSchedState(&w, metas, power)
	tree = maps.Clone(tree)
	tree[victim], tree[workerDir(0)+"/"+core.SchedStateFile] = enc, w.Bytes()

	res, err := ResumeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.workers[0].fz.Step(); err != nil {
		t.Fatal(err)
	}
	e := res.workers[0].fz.Queue[0]
	if !bytes.Equal(e.Bytes(), enc) || e.Key() != core.InputKey(in) {
		t.Fatal("worker 0's first entry is not the flipped queue file, keyed by its own hash")
	}
	for _, be := range res.broker.corpus {
		if be.Entry.Input == e.Input {
			t.Fatal("the flipped queue file took a corpus entry's input")
		}
	}
	if e.Depth != 7 || e.Picked != 12345 || !e.Trimmed || !e.GloballyDominated {
		t.Fatalf("the flipped entry's metadata did not come back: depth %d, picked %d, trimmed %v, dominated %v",
			e.Depth, e.Picked, e.Trimmed, e.GloballyDominated)
	}
}

// BenchmarkCheckpointRoundTrip measures the two halves of a stop-and-go cycle
// on their own: CheckpointTo and ResumeFrom against mem:// for a dnsmasq
// 2-worker lockstep campaign (the dns-ckpt benchmark workload's shape) that
// has queued 500 entries or more. The campaign is built outside the timer.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	c, err := New(Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 250 * time.Millisecond, SnapBudget: 8 << 20, SyncMode: SyncLockstep})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.RunFor(4 * time.Second); err != nil {
		b.Fatal(err)
	}
	entries := 0
	for _, st := range c.PerWorker() {
		entries += st.Queue
	}
	if entries < 500 {
		b.Fatalf("campaign queued %d entries, the benchmark needs 500 or more", entries)
	}
	b.Logf("%d queue entries", entries)
	st, err := store.Open(fmt.Sprintf("mem://bench-roundtrip-%d", time.Now().UnixNano()))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.CheckpointTo(st, "ckpt"); err != nil { // what ResumeFrom reads when run alone
		b.Fatal(err)
	}
	b.Run("CheckpointTo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.CheckpointTo(st, "ckpt"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ResumeFrom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ResumeFrom(st, "ckpt"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
