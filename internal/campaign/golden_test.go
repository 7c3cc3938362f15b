package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/golden"
)

// goldenFile pins the lockstep schedule's byte-level behaviour — both the
// aggregated coverage and the full checkpoint tree — for a fixed master seed:
// every worker exchanging in ID order at the round barrier through the same
// broker.exchange the async schedule calls, checkpointed in the one manifest
// format.
//
// Provenance: generated against the single-algorithm broker (PR 12); the tree
// digests, and nothing else, regenerated when manifest version 5 moved the
// bulk of the tree into broker.bin and sched.bin (PR 17; what the trees hold
// was pinned across that change by TestStopAndGoMatchesRecordedCampaign);
// reproduced unmodified by every commit up to and including the PR 20 tree
// that held everything but the new randData; re-recorded once, at PR 20, for
// randData's draw sequence and nothing else (CHANGES.md tabulates old and
// new); the tree digests, and nothing else, moved again with manifest
// version 6 (sched.bin lost the retired adaptive schedule's two fields, the
// header snapshot_reuse, coe's number went from 2 to 1), where each new tree
// rewritten in the version-5 layout reproduced the old digest; and once more
// with manifest version 7 (the header embeds Config, its enums by name, and
// lost the *_name duplicates), edited by hand after each new tree rewritten in
// the version-6 layout reproduced the recorded digest; and once more with
// manifest version 8 (broker.bin names each corpus entry's holder queue files
// and carries only the inputs no queue file holds), edited by hand after each
// new tree rewritten in the version-7 layout — every corpus input inline, the
// holder lists dropped, the header's version 7 — reproduced the recorded
// digest; and once more with manifest version 9 (sched.bin entries lost their
// content keys: entry i belongs to queue file i), edited by hand after each
// new tree rewritten in the version-8 layout — each sched.bin entry preceded
// again by core.InputKey of its queue file's input, the header's version 8 —
// reproduced the recorded digest. The ordered broker claims and the virgin
// map's word walk changed no byte of either tree. The tree digests, and
// nothing else, moved once more with manifest version 10 (broker.bin lists
// each claimant key once and its claims name claimants by number), edited by
// hand after each new tree rewritten in the version-9 layout — the claims
// section as (edge, fav, key) per claim again, the header's version 9 —
// reproduced the recorded digest. The tree digests, and nothing else, moved
// once more with manifest version 11 (a crash is its bucket, kind and fault
// site: broker.bin lists one crash per bucket and each record carries its
// site), edited by hand after each new tree rewritten in the version-10
// layout — the records without their site, the parent's per-message crash
// list restored (dnsmasq's 128 records, whose first is the new tree's one
// bucket), the header's version 10 — reproduced the recorded digest.
// Re-record with
//
//	NYX_UPDATE_GOLDEN=1 go test ./internal/core ./internal/campaign ./internal/targets -run 'Recorded|LockstepGolden'
//
// only at a tree whose behavioural difference from a tree that passes is the
// change being blessed and nothing else — the mutator's draw sequence, or a
// format change that moves tree_sha256 alone — and say so in the commit; for
// anything else that diverges, fix the code.
const goldenFile = "testdata/lockstep_golden.json"

type goldenEntry struct {
	Target     string `json:"target"`
	Workers    int    `json:"workers"`
	Power      string `json:"power"`
	Edges      int    `json:"edges"`
	Corpus     int    `json:"corpus"`
	TreeSHA256 string `json:"tree_sha256"`
}

// goldenConfigs are the pinned campaign configurations: both ablation
// targets, with and without the power-schedule feedback path (which
// exercises the broker's edge-pick aggregation in addition to dedup,
// competition and redistribution).
func goldenConfigs() []Config {
	return []Config{
		{Target: "tinydtls", Workers: 3, Policy: core.PolicyAggressive, Seed: 1,
			SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe},
		{Target: "dnsmasq", Workers: 3, Policy: core.PolicyAggressive, Seed: 1,
			SyncInterval: 500 * time.Millisecond},
	}
}

// treeDigest canonicalizes a checkpoint tree (sorted keys, length-framed
// key/value stream) into one SHA-256.
func treeDigest(t map[string][]byte) string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		var frame [8]byte
		putLen := func(n int) {
			for i := 0; i < 8; i++ {
				frame[i] = byte(n >> (8 * i))
			}
			h.Write(frame[:])
		}
		putLen(len(k))
		h.Write([]byte(k))
		putLen(len(t[k]))
		h.Write(t[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runGolden(t *testing.T, cfg Config) goldenEntry {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", cfg.Target, err)
	}
	if err := c.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor(%s): %v", cfg.Target, err)
	}
	tree, err := c.CheckpointTree()
	if err != nil {
		t.Fatalf("CheckpointTree(%s): %v", cfg.Target, err)
	}
	return goldenEntry{
		Target:     cfg.Target,
		Workers:    cfg.Workers,
		Power:      cfg.Power.String(),
		Edges:      c.Coverage(),
		Corpus:     c.CorpusSize(),
		TreeSHA256: treeDigest(tree),
	}
}

// TestLockstepGolden asserts that seeded lockstep mode still produces the
// exact aggregated coverage and checkpoint bytes the golden file pins (the
// ablation harness's determinism contract: byte-identical edges and
// checkpoints for a fixed master seed).
func TestLockstepGolden(t *testing.T) {
	var got []goldenEntry
	for _, cfg := range goldenConfigs() {
		got = append(got, runGolden(t, cfg))
	}
	if golden.Updating() {
		golden.Write(t, goldenFile, got)
		return
	}
	var want []goldenEntry
	golden.Read(t, goldenFile, &want)
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, run produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("%s (power %s): lockstep output diverged from the golden file:\n  got  %+v\n  want %+v",
				w.Target, w.Power, g, w)
		}
	}
}
