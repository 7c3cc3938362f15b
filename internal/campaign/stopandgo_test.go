package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/guest"
	"repro/internal/spec"
)

const recordedCampaignFile = "testdata/recorded_campaign.json"

// recordedStopAndGo is what six stop-and-go cycles of one campaign left.
type recordedStopAndGo struct {
	Target string `json:"target"`
	// Execs is summed over the cycles (a resumed campaign counts from zero).
	Execs   uint64 `json:"execs"`
	Edges   int    `json:"edges"`
	Corpus  int    `json:"corpus"`
	Crashes int    `json:"crashes"`
	Deduped uint64 `json:"deduped"`
	// QueuesSHA256 is over every worker's final queue files, key order.
	QueuesSHA256 string `json:"queues_sha256"`
}

// TestStopAndGoMatchesRecordedCampaign is the behavioural differential for
// the checkpoint format: a campaign that stops and resumes through the tree
// must restore what the recorded one restored — any scheduler metadata,
// claim, pending import, counter or power state that comes back differently
// changes what the next cycle picks and diverges every column. Six cycles of
// run 500 virt-ms → CheckpointTree → ResumeTree → continue from the copy,
// lockstep, seed 1.
//
// Provenance of testdata/recorded_campaign.json: recorded at the last commit
// that wrote manifest version 4 (indented JSON, base64 inputs, sched.json and
// power.json per worker; PR 16); reproduced unmodified through the version-5
// format (PR 17) and by every commit up to and including the PR 20 tree that
// held everything but the new randData; re-recorded once, at PR 20, for
// randData's draw sequence and nothing else (CHANGES.md tabulates old and
// new); re-recorded once more, at manifest version 9, for the metadata fix
// and nothing else: sched.bin entries are matched to queue files by position,
// not by content key, and every restored entry re-queues. Until then a queue
// holding two entries with the same bytes resumed with the first copy
// carrying the second's metadata and the second dropped, and an entry whose
// re-run found no new bits was dropped too. The fixed run is identical to the
// recorded one up to the first cycle where the old code did either (the
// first resume, for both campaigns; CHANGES.md tabulates the counts per
// cycle and old and new values); and once more, at manifest version 11, for
// the crash identity and nothing else: a crash bucket is its kind and fault
// site (core.CrashID), so dnsmasq's 128 label-length crashes, one message per
// length, are one bucket, and the crashes column alone moved, 128 → 1. The
// re-record rule is goldenFile's: only at a tree whose behavioural difference
// from a passing tree is the change being blessed itself. If this test
// diverges for any other reason, a resume restores something differently:
// fix the code.
func TestStopAndGoMatchesRecordedCampaign(t *testing.T) {
	var want, got []recordedStopAndGo
	if !golden.Updating() {
		golden.Read(t, recordedCampaignFile, &want)
	}
	cfgs := []Config{
		{Target: "tinydtls", Workers: 3, Policy: core.PolicyAggressive, Seed: 1,
			SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe},
		{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
			SyncInterval: 500 * time.Millisecond},
	}
	for i, cfg := range cfgs {
		t.Run(cfg.Target, func(t *testing.T) {
			cur, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var execs uint64
			h := sha256.New()
			for cycle := 0; cycle < 6; cycle++ {
				if err := cur.RunFor(500 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
				execs += cur.Execs()
				tree, err := cur.CheckpointTree()
				if err != nil {
					t.Fatal(err)
				}
				if cycle == 5 {
					for _, k := range queueFiles(tree) {
						h.Write([]byte(k))
						h.Write(tree[k])
					}
				}
				if cur, err = ResumeTree(tree); err != nil {
					t.Fatal(err)
				}
			}
			g := recordedStopAndGo{cfg.Target, execs, cur.Coverage(), cur.CorpusSize(),
				len(cur.Crashes()), cur.Deduped(), hex.EncodeToString(h.Sum(nil))}
			got = append(got, g)
			if golden.Updating() {
				return
			}
			if i >= len(want) {
				t.Fatalf("no recording for campaign %d", i)
			}
			if g != want[i] {
				t.Fatalf("stop-and-go campaign diverged from the recorded run:\n got %+v\nwant %+v", g, want[i])
			}
		})
	}
	if golden.Updating() {
		if len(got) != len(cfgs) {
			t.Fatalf("not re-recording: %d of %d campaigns ran to the end", len(got), len(cfgs))
		}
		golden.Write(t, recordedCampaignFile, got)
	}
}

// A resumed queue is the checkpointed queue, entry for entry, even where two
// entries hold the same bytes: sched.bin entry i belongs to queue file i, so
// the second copy re-queues although its re-run covers nothing new, and each
// copy keeps its own metadata. The pair is planted in worker 0's queue (its
// last file made a copy of its second, no corpus entry naming it) with two
// depths nothing rewrites and both marked trimmed, so a trim never tells them
// apart; then three cycles of resume → seed import → run 500 virt-ms →
// CheckpointTree each hold every worker's imported queue to the tree it came
// from: the same files in the same order, entry i with sched.bin entry i.
func TestStopAndGoKeepsDuplicateEntries(t *testing.T) {
	cfg := Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
		SyncInterval: 500 * time.Millisecond}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tree, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	first, dup := 1, len(c.workers[0].fz.Queue)-1
	if dup <= first {
		t.Fatalf("worker 0 queued %d entries (test premise broken)", dup+1)
	}
	dupFile := holder{0, dup}
	tree = editBrokerHolders(t, tree, func(b *broker, hs *holders) {
		lists := make([][]holder, len(b.corpus))
		for i := range b.corpus {
			for _, h := range hs.of(i) {
				if h != dupFile {
					lists[i] = append(lists[i], h)
				}
			}
		}
		*hs = holdersOf(lists...)
	})
	file := func(worker, id int) string { return fmt.Sprintf("%s/queue/id-%06d.nyx", workerDir(worker), id) }
	tree[file(0, dup)] = tree[file(0, first)]
	sched := workerDir(0) + "/" + core.SchedStateFile
	metas, power, err := core.DecodeSchedState(tree[sched])
	if err != nil {
		t.Fatal(err)
	}
	metas[first] = core.EntryMeta{Depth: 5, ExecTime: metas[first].ExecTime, Picked: 3, Trimmed: true}
	metas[dup] = core.EntryMeta{Depth: 9, ExecTime: 2 * metas[first].ExecTime, Picked: 7, Trimmed: true, AggrBack: 1, Dominated: true}
	var sw guest.StateWriter
	core.EncodeSchedState(&sw, metas, power)
	tree[sched] = sw.Bytes()

	for cycle := 0; cycle < 3; cycle++ {
		if c, err = ResumeTree(tree); err != nil {
			t.Fatal(err)
		}
		for _, w := range c.workers {
			if err := w.fz.Step(); err != nil { // the seed import
				t.Fatal(err)
			}
			metas, _, err := core.DecodeSchedState(tree[workerDir(w.id)+"/"+core.SchedStateFile])
			if err != nil {
				t.Fatal(err)
			}
			if len(w.fz.Queue) != len(metas) {
				t.Fatalf("cycle %d: worker %d re-queued %d of %d entries", cycle, w.id, len(w.fz.Queue), len(metas))
			}
			got := w.fz.SchedMeta()
			for i, e := range w.fz.Queue {
				if f := tree[file(w.id, i)]; !bytes.Equal(e.Bytes(), f) || !bytes.Equal(spec.Serialize(e.Input), f) {
					t.Fatalf("cycle %d: worker %d entry %d is not %s", cycle, w.id, i, file(w.id, i))
				}
				if got[i] != metas[i] {
					t.Fatalf("cycle %d: worker %d entry %d has metadata %+v, sched.bin entry %d %+v", cycle, w.id, i, got[i], i, metas[i])
				}
			}
		}
		q := c.workers[0].fz.Queue
		if !bytes.Equal(q[first].Bytes(), q[dup].Bytes()) || q[first].Depth != 5 || q[dup].Depth != 9 {
			t.Fatalf("cycle %d: the planted pair is entries of depths %d and %d", cycle, q[first].Depth, q[dup].Depth)
		}
		if err := c.RunFor(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if tree, err = c.CheckpointTree(); err != nil {
			t.Fatal(err)
		}
	}
}
