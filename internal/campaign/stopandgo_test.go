package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/core"
)

// TestStopAndGoMatchesRecordedCampaign is the behavioural differential for
// the checkpoint format: the numbers below were recorded at the last commit
// that wrote manifest version 4 (indented JSON, base64 inputs, sched.json and
// power.json per worker; PR 16), so a campaign that stops and resumes through
// the version-5 tree must restore what that one restored — any scheduler
// metadata, claim, pending import, counter or power state that comes back
// differently changes what the next cycle picks and diverges every column.
// Six cycles of run 500 virt-ms → CheckpointTree → ResumeTree → continue from
// the copy, lockstep, seed 1.
func TestStopAndGoMatchesRecordedCampaign(t *testing.T) {
	for _, c := range []struct {
		cfg     Config
		execs   uint64 // summed over the six cycles (a resumed campaign counts from zero)
		edges   int
		corpus  int
		crashes int
		deduped uint64
		queues  string // SHA-256 over every worker's final queue files, key order
	}{
		{Config{Target: "tinydtls", Workers: 3, Policy: core.PolicyAggressive, Seed: 1,
			SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe},
			24324, 636, 502, 0, 7325, "3b6938c9d1ed1e5bbb55ef73c12685c7b3483dcfdd76ab865e04ddd956e3670f"},
		{Config{Target: "dnsmasq", Workers: 2, Policy: core.PolicyAggressive, Seed: 1,
			SyncInterval: 500 * time.Millisecond},
			16088, 254, 304, 128, 2369, "78e094bd6ddafb2e3d43a674d567946124f876987027050bdae5e253138ffe2d"},
	} {
		t.Run(c.cfg.Target, func(t *testing.T) {
			cur, err := New(c.cfg)
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
			queues := hex.EncodeToString(h.Sum(nil))
			if execs != c.execs || cur.Coverage() != c.edges || cur.CorpusSize() != c.corpus ||
				len(cur.Crashes()) != c.crashes || cur.Deduped() != c.deduped || queues != c.queues {
				t.Fatalf("stop-and-go campaign diverged from the recorded version-4 run:\n got execs=%d edges=%d corpus=%d crashes=%d deduped=%d queues=%s\nwant execs=%d edges=%d corpus=%d crashes=%d deduped=%d queues=%s",
					execs, cur.Coverage(), cur.CorpusSize(), len(cur.Crashes()), cur.Deduped(), queues,
					c.execs, c.edges, c.corpus, c.crashes, c.deduped, c.queues)
			}
		})
	}
}
