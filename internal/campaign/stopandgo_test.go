package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/golden"
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
// new). The re-record rule is goldenFile's: only at a tree whose behavioural
// difference from a passing tree is the mutator's draw sequence itself. If
// this test diverges for any other reason, a resume restores something
// differently: fix the code.
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
