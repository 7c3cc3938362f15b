package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
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
	// So does broker.bin, whose corpus entries name the restored seeds as
	// their holders, and the second tree resumes to the corpus the first
	// one did.
	for _, k := range []string{brokerFile, virginFile} {
		if !bytes.Equal(first[k], second[k]) {
			t.Fatalf("%s differs between the two trees", k)
		}
	}
	res2, err := ResumeTree(second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.broker.corpus) != len(res.broker.corpus) {
		t.Fatalf("the second tree resumed to %d corpus entries, the first to %d", len(res2.broker.corpus), len(res.broker.corpus))
	}
	for i, be := range res2.broker.corpus {
		was := res.broker.corpus[i].Entry
		if be.Entry.Key() != was.Key() || !bytes.Equal(be.Entry.Bytes(), was.Bytes()) || !bytes.Equal(spec.Serialize(be.Entry.Input), was.Bytes()) {
			t.Fatalf("corpus entry %d differs between the two resumes", i)
		}
	}
	// The campaign resumed from the second tree fuzzes the saved corpus, not
	// the bundled seeds.
	if err := res2.RunFor(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	queued := 0
	for _, st := range res2.PerWorker() {
		queued += st.Queue
	}
	if queued < len(files) {
		t.Fatalf("campaign resumed from the second tree queued %d entries of %d saved", queued, len(files))
	}
}

// sched.bin holds one entry per queue file of its worker, entry i for file
// i. A campaign checkpointed before its first round files its bundled seeds
// as queue files, with the zero EntryMeta for each, and resumes; a sched.bin
// with an entry more or fewer than its worker's queue files is refused.
func TestCheckpointHoldsOneSchedEntryPerQueueFile(t *testing.T) {
	c, err := New(testCfg(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	key := workerDir(1) + "/" + core.SchedStateFile
	metas, power, err := core.DecodeSchedState(tree[key])
	if err != nil {
		t.Fatal(err)
	}
	seeds := len(queueFiles(tree)) / 2
	if seeds == 0 || len(metas) != seeds || slices.ContainsFunc(metas, func(m core.EntryMeta) bool { return m != core.EntryMeta{} }) {
		t.Fatalf("worker 1 files %d seeds, sched.bin holds %+v", seeds, metas)
	}
	if _, err := ResumeTree(maps.Clone(tree)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{seeds - 1, seeds + 1} {
		var w guest.StateWriter
		core.EncodeSchedState(&w, make([]core.EntryMeta, n), power)
		bad := maps.Clone(tree)
		bad[key] = w.Bytes()
		if _, err := ResumeTree(bad); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%d entries for %d queue files: err = %v", n, seeds, err)
		}
	}
}

// decodeHolders decodes tree's broker.bin and returns the broker and its
// corpus entries' holders.
func decodeHolders(t *testing.T, tree store.Tree) (*broker, holders) {
	t.Helper()
	m, err := readManifest(tree)
	if err != nil {
		t.Fatal(err)
	}
	q, err := indexQueues(tree, m.Workers)
	if err != nil {
		t.Fatal(err)
	}
	b, hs, err := decodeBroker(tree[brokerFile], q)
	if err != nil {
		t.Fatal(err)
	}
	return b, hs
}

// A corpus entry with no holder (its input in broker.bin), with one and with
// two survives CheckpointTree → ResumeTree → CheckpointTree byte for byte:
// the resume links every holder to the entry's one decoded input, and the
// checkpoint lists the same holders again. The manifest differs in its epoch
// only. A round after the resume keeps the links: the adopted seeds and the
// new imports hold the corpus entries' inputs, so most entries still travel
// without their bytes.
func TestCheckpointHoldersRoundTrip(t *testing.T) {
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	// Let every third corpus entry carry its input.
	tree = editBrokerHolders(t, tree, func(b *broker, hs *holders) {
		lists := make([][]holder, len(b.corpus))
		for i := range b.corpus {
			if i%3 != 0 {
				lists[i] = hs.of(i)
			}
		}
		*hs = holdersOf(lists...)
	})
	b, hs := decodeHolders(t, tree)
	var count [3]int
	for i := range b.corpus {
		count[min(len(hs.of(i)), 2)]++
	}
	if count[0] == 0 || count[1] == 0 || count[2] == 0 {
		t.Fatalf("corpus entries with no, one and two holders: %v (test premise broken)", count)
	}
	res, err := ResumeTree(maps.Clone(tree))
	if err != nil {
		t.Fatal(err)
	}
	again, err := res.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(tree) {
		t.Fatalf("the second tree has %d files, the first %d", len(again), len(tree))
	}
	for k, v := range tree {
		if k != ManifestFile && !bytes.Equal(again[k], v) {
			t.Fatalf("%s differs between the two trees", k)
		}
	}
	m1, _ := readManifest(tree)
	m2, err := readManifest(again)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Epoch++; !reflect.DeepEqual(m1, m2) {
		t.Fatalf("the manifests differ beyond the epoch:\n%+v\n%+v", m1, m2)
	}

	if err := res.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after, err := res.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	b, hs = decodeHolders(t, after)
	held := 0
	for i := range b.corpus {
		if len(hs.of(i)) > 0 {
			held++
		}
	}
	t.Logf("no, one and two holders before the resume: %v; after a round %d of %d corpus entries held", count, held, len(b.corpus))
	if was := count[1] + count[2]; held < was*9/10 {
		t.Fatalf("after a round, %d of %d corpus entries have a holder, %d did before", held, len(b.corpus), was)
	}
}

// A one-worker campaign's every corpus entry is its worker's own queue
// entry, so broker.bin names a holder for each and carries no input bytes.
func TestCheckpointOneWorkerBrokerCarriesNoInputs(t *testing.T) {
	c := run(t, Config{Target: "bftpd", Workers: 1, Policy: core.PolicyAggressive, Seed: 1, SnapBudget: 4 << 20}, 2*time.Second)
	tree, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	b, hs := decodeHolders(t, tree)
	if len(b.corpus) < 100 || len(b.Crashes) > 0 || len(b.pending[0]) > 0 {
		t.Fatalf("%d corpus entries, %d crashes, %d pending imports (test premise broken)", len(b.corpus), len(b.Crashes), len(b.pending[0]))
	}
	queued := 0
	for _, k := range queueFiles(tree) {
		queued += len(tree[k])
	}
	for i := range b.corpus {
		if held := hs.of(i); len(held) != 1 || held[0] != (holder{0, c.broker.corpus[i].Entry.ID}) {
			t.Fatalf("corpus entry %d: holders %v", i, held)
		}
	}
	t.Logf("%d corpus entries: broker.bin %d bytes, queue files %d", len(b.corpus), len(tree[brokerFile]), queued)
	if len(tree[brokerFile]) >= queued {
		t.Fatalf("broker.bin is %d bytes, the queue files %d", len(tree[brokerFile]), queued)
	}
}

// A holder is a reference into the tree, and a tree whose reference is bad
// is refused with an error naming it: a holder naming a file the tree does
// not have, a worker outside the campaign, or a file with other bytes than
// the first holder's.
func TestResumeRefusesBadHolders(t *testing.T) {
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	b, hs := decodeHolders(t, tree)
	two := -1
	for i := range b.corpus {
		if len(hs.of(i)) == 2 {
			two = i
			break
		}
	}
	if two < 0 {
		t.Fatal("no corpus entry has two holders (test premise broken)")
	}
	// edit rewrites corpus entry two's holders.
	edit := func(f func(held []holder) []holder) store.Tree {
		return editBrokerHolders(t, tree, func(b *broker, hs *holders) {
			lists := make([][]holder, len(b.corpus))
			for i := range b.corpus {
				lists[i] = hs.of(i)
			}
			lists[two] = f(slices.Clone(lists[two]))
			*hs = holdersOf(lists...)
		})
	}
	name := func(h holder) string { return fmt.Sprintf("%s/queue/id-%06d.nyx", workerDir(h.worker), h.id) }
	held := hs.of(two)
	missing := holder{held[1].worker, 999999}
	other := slices.Clone(tree[name(held[1])])
	other[len(other)/2] ^= 0xff
	otherBytes := maps.Clone(tree)
	otherBytes[name(held[1])] = other
	for what, bad := range map[string]struct {
		tree store.Tree
		want string
	}{
		"missing file": {edit(func(h []holder) []holder { return append(h, missing) }), name(missing)},
		"deleted file": {func() store.Tree { t := maps.Clone(tree); delete(t, name(held[0])); return t }(), name(held[0])},
		"worker 2":     {edit(func(h []holder) []holder { return append(h, holder{2, 0}) }), "holder names worker 2 of 2"},
		"out of order": {edit(func(h []holder) []holder { return []holder{h[1], h[0]} }), "holder"},
		"twice":        {edit(func(h []holder) []holder { return []holder{h[0], h[0]} }), "holder"},
		"other bytes":  {otherBytes, name(held[1])},
	} {
		_, err := ResumeTree(bad.tree)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want one naming %q", what, err, bad.want)
		}
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

// holdersOf lists the corpus entries' holders, entry i's in lists[i].
func holdersOf(lists ...[]holder) holders {
	hs := holders{start: []int{0}}
	for _, l := range lists {
		hs.at = append(hs.at, l...)
		hs.start = append(hs.start, len(hs.at))
	}
	return hs
}

// smallSections returns the three decoded sections of a real checkpoint cut
// down to a few entries each, and the tree broker.bin's holders are in, so
// that a test can afford to decode them once per byte offset: every sequence
// keeps elements, every field a real value, and of the three corpus entries
// the first has two holders, the second none (its input inline) and the
// third one.
func smallSections(t *testing.T) (tree store.Tree, header, brokerBin, sched []byte) {
	t.Helper()
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	tree = editBrokerHolders(t, tree, func(b *broker, hs *holders) {
		if len(b.Crashes) == 0 || len(b.claimed) < 3 {
			t.Fatalf("checkpoint too small to cut down: %d crashes, %d claims", len(b.Crashes), len(b.claimed))
		}
		var kept []brokerEntry
		var lists [][]holder
		for i, be := range b.corpus {
			if want := []int{2, 1, 1}[len(kept)]; len(hs.of(i)) == want {
				kept, lists = append(kept, be), append(lists, hs.of(i))
				if len(kept) == 3 {
					break
				}
			}
		}
		if len(kept) < 3 {
			t.Fatalf("no three corpus entries of %d with two, one and one holders", len(b.corpus))
		}
		lists[1] = nil
		// dnsmasq's crashes are one bucket: a copy at a second site keeps
		// two crash records.
		other := b.Crashes[0]
		other.Site += " (second site)"
		b.corpus, b.Crashes, *hs = kept, []core.Crash{b.Crashes[0], other}, holdersOf(lists...)
		for _, be := range b.corpus {
			be.Entry.Cov = be.Entry.Cov[:min(4, len(be.Entry.Cov))]
		}
		b.claimed, b.claims = b.claimed[:3], b.claims[:3]
		b.pending[1] = []importItem{{input: b.corpus[0].Entry.Input, corpus: -1, globalFav: true}}
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
	return tree, tree[ManifestFile], tree[brokerFile], w.Bytes()
}

// TestCheckpointDecodeBoundsCounts overwrites every byte offset of each
// checkpoint section with a count of four billion and decodes the result,
// broker.bin against its tree's queue files. Where the offset falls in a
// count, a length, a boolean, a worker, a holder or an edge the decode fails;
// where it falls in free bytes (a payload, a timestamp, a key) it may
// succeed, and then the section encodes back to itself. Either way no count
// sized an allocation: all the corrupt decodes together allocate within 16
// MiB of what as many decodes of the section itself do (a decoded broker is
// a 64 KiB virgin map and its empty maps before it holds anything).
func TestCheckpointDecodeBoundsCounts(t *testing.T) {
	tree, header, brokerBin, sched := smallSections(t)
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
		{brokerFile, brokerBin, func(raw []byte) ([]byte, error) { return ReencodeBroker(raw, 2, tree) }},
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

// broker.bin lists each crash bucket once: a resume refuses a second crash
// of one kind at one site, even with another message and crash_entries
// counting both, and names the bucket.
func TestResumeRefusesRepeatedCrash(t *testing.T) {
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	var first core.Crash
	tree = editBroker(t, tree, func(b *broker) {
		if len(b.Crashes) == 0 {
			t.Fatal("the campaign found no crash (test premise broken)")
		}
		first = b.Crashes[0]
		again := first
		again.Msg += " (another value)"
		b.Crashes = append(b.Crashes, again)
	})
	want := fmt.Sprintf("repeats the bucket of an earlier one (%s at %q)", first.Kind, first.Site)
	if _, err := ResumeTree(tree); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a bucket listed twice: err = %v, want a refusal saying %s", err, want)
	}
}

// broker.bin's claims section writes each claimant key once, in the order
// the claims first name them, and every claimant is named: a resume refuses
// each way to break that, with an error saying which.
func TestResumeRefusesBadClaimants(t *testing.T) {
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeTree(tree); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"out of range": "names claimant",
		"repeated key": "repeats the key of claimant 0",
		"unreferenced": "is named by no claim",
		"out of order": "names claimant 1 of",
	}
	for name, raw := range BadClaimSections(tree[brokerFile]) {
		bad := maps.Clone(tree)
		bad[brokerFile] = raw
		if _, err := ResumeTree(bad); err == nil || !strings.Contains(err.Error(), want[name]) {
			t.Errorf("%s: err = %v, want a refusal saying %q", name, err, want[name])
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
// inputs, encodings and claim lists from slabs, 2.1 and 8.6. It reads 0.05
// and 1.37 now (1.41 while each claim carried its claimant's key and a resume
// counted claims in string-keyed maps, 0.06 and 1.42 while sched.bin entries
// carried content keys),
// one of which is GetTree's copy of each file (the store keeps that per
// file: see the layout comment). The checkpoint also hashes nothing: every
// live entry was keyed when it was published, a holder is found by identity,
// and sched.bin matches its entries to the queue files by position.
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

	// A checkpoint hashes no input: not the live campaign's, whose entries
	// were keyed when they were published, and not a resumed one's before its
	// first round, whose seeds from queue files no corpus entry names have no
	// key yet.
	res, err := ResumeFrom(st, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Campaign{"live": c, "resumed": res} {
		hashed := core.HashedInputs()
		if _, err := c.CheckpointTree(); err != nil {
			t.Fatal(err)
		}
		if n := core.HashedInputs() - hashed; n != 0 {
			t.Fatalf("the checkpoint of the %s campaign hashed %d inputs", name, n)
		}
	}
}

// A queue file broker.bin names as a corpus entry's holder is restored as
// that entry's decoded input with its key, and a seed that re-queues keeps
// both: after a resume and its first round no such seed was decoded again or
// hashed. broker.bin's keys are complemented here, so a seed that had hashed
// its input would carry the real key instead.
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

// A queue file no corpus entry names as a holder is decoded and hashed on
// its own, even one byte away from the input of the corpus entry that named
// it before, and the scheduler metadata sched.bin holds at its position
// lands on it when worker 0 imports its seeds. The corpus entry it held, holderless
// now, keeps its own input, which broker.bin carries.
func TestResumeDecodesUnsharedQueueFile(t *testing.T) {
	tree, err := run(t, Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}, time.Second).CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0's first queue file re-queues whatever ran before it: no seed
	// runs before it. Let no corpus entry name it.
	victim := workerDir(0) + "/queue/id-000000.nyx"
	first := holder{0, 0}
	held := -1
	tree = editBrokerHolders(t, tree, func(b *broker, hs *holders) {
		lists := make([][]holder, len(b.corpus))
		for i := range b.corpus {
			for _, h := range hs.of(i) {
				if h == first {
					held = i
				} else {
					lists[i] = append(lists[i], h)
				}
			}
		}
		*hs = holdersOf(lists...)
	})
	in, err := spec.Deserialize(tree[victim])
	if err != nil {
		t.Fatal(err)
	}
	op := slices.IndexFunc(in.Ops, func(op spec.Op) bool { return len(op.Data) > 0 })
	if op < 0 || held < 0 {
		t.Fatal("worker 0's first queue file carries no payload or held no corpus entry (test premise broken)")
	}
	in = in.Clone()
	in.Ops[op].Data = append([]byte{^in.Ops[op].Data[0]}, in.Ops[op].Data[1:]...)
	enc := spec.Serialize(in)
	metas, power, err := core.DecodeSchedState(tree[workerDir(0)+"/"+core.SchedStateFile])
	if err != nil {
		t.Fatal(err)
	}
	metas[0] = core.EntryMeta{Depth: 7, Picked: 12345, Trimmed: true, Dominated: true}
	var w guest.StateWriter
	core.EncodeSchedState(&w, metas, power)
	orig := tree[victim]
	tree[victim], tree[workerDir(0)+"/"+core.SchedStateFile] = enc, w.Bytes()

	res, err := ResumeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if be := res.broker.corpus[held].Entry; !bytes.Equal(be.Bytes(), orig) || !bytes.Equal(spec.Serialize(be.Input), orig) {
		t.Fatalf("corpus entry %d lost the input it carries", held)
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
// on their own: CheckpointTo and ResumeFrom against mem://, for two campaign
// shapes built outside the timer. dnsmasq is a 2-worker lockstep campaign
// (the dns-ckpt benchmark workload's shape) of 500 queue entries or more;
// ftp-snap is the checkpoint tail of the ftp-snap workload, a 1-worker bftpd
// campaign (aggressive policy, 4 MiB pool, seed 1) after 12 virtual seconds,
// whose tree of about 2,000 files holds about 2,000 claimed edges — the
// shape whose resume decodes the most claims per file.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	for _, shape := range []struct {
		name    string
		cfg     Config
		virt    time.Duration
		entries int // the fewest queue entries the shape is meant to have
	}{
		{"dnsmasq", Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
			SyncInterval: 250 * time.Millisecond, SnapBudget: 8 << 20, SyncMode: SyncLockstep}, 4 * time.Second, 500},
		{"ftp-snap", Config{Target: "bftpd", Workers: 1, Policy: core.PolicyAggressive, Seed: 1,
			SnapBudget: 4 << 20, SyncMode: SyncAsync}, 12 * time.Second, 1500},
	} {
		b.Run(shape.name, func(b *testing.B) {
			c, err := New(shape.cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.RunFor(shape.virt); err != nil {
				b.Fatal(err)
			}
			entries := 0
			for _, st := range c.PerWorker() {
				entries += st.Queue
			}
			if entries < shape.entries {
				b.Fatalf("campaign queued %d entries, the benchmark needs %d or more", entries, shape.entries)
			}
			st, err := store.Open(fmt.Sprintf("mem://bench-roundtrip-%s-%d", shape.name, time.Now().UnixNano()))
			if err != nil {
				b.Fatal(err)
			}
			if err := c.CheckpointTo(st, "ckpt"); err != nil { // what ResumeFrom reads when run alone
				b.Fatal(err)
			}
			tree, err := st.GetTree("ckpt")
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("%d queue entries, %d files, %d claimed edges", entries, len(tree), len(c.broker.claimed))
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
		})
	}
}

// A resume files each worker's queue files in id order in one pass, and only
// a tree numbered as CheckpointTree numbers it, from 0 without a gap, is
// accepted: a gap, a duplicate (a name CheckpointTree would not write beside
// the one it would) or a first id other than 0 is refused, naming the worker
// and the least id it has no file for, the same in every key order.
func TestResumeIndexesQueueFilesByID(t *testing.T) {
	for _, c := range []struct {
		names []string
		err   string // "" when the tree is accepted
	}{
		{[]string{"000000", "000001", "000002", "000003", "000004", "000005", "000006"}, ""},
		{[]string{"000000", "000001", "000002", "000004", "000005"}, "worker-000 has 5 queue files but no worker-000/queue/id-000003.nyx"},
		{[]string{"000000", "000001", "000002", "2", "000003"}, "worker-000 has 5 queue files but no worker-000/queue/id-000004.nyx"},
		{[]string{"000003", "000004", "000005"}, "worker-000 has 3 queue files but no worker-000/queue/id-000000.nyx"},
		{[]string{"000000", "000001", "1000000"}, "worker-000 has 3 queue files but no worker-000/queue/id-000002.nyx"},
	} {
		for range 10 {
			tree := store.Tree{workerDir(0) + "/sched.bin": nil, workerDir(1) + "/queue/id-000000.nyx": nil}
			for _, n := range c.names {
				tree[workerDir(0)+"/queue/id-"+n+".nyx"] = nil
			}
			q, err := indexQueues(tree, 1)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("%v: indexQueues returned %v, want %q", c.names, err, c.err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: %v", c.names, err)
			}
			var got []string
			for id, f := range q.files[0] {
				if f.id != id {
					t.Fatalf("%v: file %d has id %d", c.names, id, f.id)
				}
				got = append(got, strings.TrimSuffix(strings.TrimPrefix(f.key, workerDir(0)+"/queue/id-"), ".nyx"))
			}
			if !slices.Equal(got, c.names) {
				t.Fatalf("queue files filed as %v, want %v", got, c.names)
			}
		}
	}
}
