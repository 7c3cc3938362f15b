package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

// goldenFile pins the lockstep schedule's byte-level behaviour — both the
// aggregated coverage and the full checkpoint tree. The digests in it were
// generated against the single-algorithm broker: every worker exchanging in
// ID order at the round barrier through the same broker.exchange the async
// schedule calls, checkpointed in the one manifest format (they replaced
// digests pinned against the pre-sharding broker's separate lockstep
// ingest, which that change deleted). The tree digests — and nothing else
// in the file — were regenerated once more when manifest version 5 moved the
// bulk of the tree from JSON into broker.bin and sched.bin; what the trees
// hold was pinned across that change by TestStopAndGoMatchesRecordedCampaign.
// Every later refactor of the broker must keep seeded lockstep mode
// byte-identical to them. Regenerate with
//
//	NYX_UPDATE_GOLDEN=1 go test ./internal/campaign -run TestLockstepGolden
//
// only when lockstep semantics change on purpose (and say so in the commit).
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
	if os.Getenv("NYX_UPDATE_GOLDEN") != "" {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenFile)
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file (generate with NYX_UPDATE_GOLDEN=1): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
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
