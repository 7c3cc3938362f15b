package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/spec"
)

const recordedCampaignFile = "testdata/recorded_campaign.json"

// recordedCampaign is what one seeded campaign left behind.
type recordedCampaign struct {
	Target string `json:"target"`
	Execs  uint64 `json:"execs"`
	Edges  int    `json:"edges"`
	Queue  int    `json:"queue"`
	// CorpusSHA256 is over every queue entry's Serialize bytes, queue order.
	CorpusSHA256 string `json:"corpus_sha256"`
}

// TestSharedInputsMatchRecordedCampaign is the differential golden for
// structurally shared inputs: a campaign whose queue entries share payloads
// with their parents must produce what an engine that deep-copies every op
// produces — same execution count, same coverage, same queue, and the same
// bytes in every queue entry. A write through a shared op changes some
// parent's bytes and shows up in the corpus hash; a changed RNG draw sequence
// shows up in all four.
//
// Provenance of testdata/recorded_campaign.json: the numbers were recorded at
// the last commit whose Input.Clone deep-copied every op (PR 15) and were
// reproduced unmodified by every commit up to and including the PR 20 tree
// that held everything but the new randData. They were re-recorded once, at
// PR 20, for randData's draw sequence and nothing else (CHANGES.md tabulates
// old and new). Re-record with
//
//	NYX_UPDATE_GOLDEN=1 go test ./internal/core ./internal/campaign ./internal/targets -run 'Recorded|LockstepGolden'
//
// only at a tree whose behavioural difference from a tree that passes is the
// mutator's draw sequence itself; for anything else that diverges, fix the
// code.
func TestSharedInputsMatchRecordedCampaign(t *testing.T) {
	var want, got []recordedCampaign
	if !golden.Updating() {
		golden.Read(t, recordedCampaignFile, &want)
	}
	campaigns := []struct {
		target     string
		policy     Policy
		snapBudget int64
		seed       int64
	}{
		{"bftpd", PolicyAggressive, 4 << 20, 1},
		{"tinydtls", PolicyNone, 0, 1},
		{"dnsmasq", PolicyAggressive, 0, 2},
	}
	for i, c := range campaigns {
		t.Run(c.target, func(t *testing.T) {
			inst := launch(t, c.target)
			f := New(inst.Agent, inst.Spec, Options{
				Policy:     c.policy,
				Seeds:      inst.Seeds(),
				Rand:       rand.New(rand.NewSource(c.seed)),
				Dict:       inst.Info.Dict,
				SnapBudget: c.snapBudget,
			})
			if err := f.RunFor(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, e := range f.Queue {
				h.Write(spec.Serialize(e.Input))
			}
			g := recordedCampaign{c.target, f.Execs(), f.Coverage(), len(f.Queue), hex.EncodeToString(h.Sum(nil))}
			got = append(got, g)
			if golden.Updating() {
				return
			}
			if i >= len(want) {
				t.Fatalf("no recording for campaign %d", i)
			}
			if g != want[i] {
				t.Fatalf("campaign diverged from the recorded run:\n got %+v\nwant %+v", g, want[i])
			}
		})
	}
	if golden.Updating() {
		if len(got) != len(campaigns) {
			t.Fatalf("not re-recording: %d of %d campaigns ran to the end", len(got), len(campaigns))
		}
		golden.Write(t, recordedCampaignFile, got)
	}
}
