package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"repro/internal/spec"
)

// TestSharedInputsMatchRecordedCampaign is the differential golden for
// structurally shared inputs: the numbers below were recorded at the last
// commit whose Input.Clone deep-copied every op (PR 15), so a campaign whose
// queue entries share payloads with their parents must reproduce what the
// deep-copying engine produced — same execution count, same coverage, same
// queue, and the same bytes in every queue entry. A write through a shared
// op changes some parent's bytes and shows up in the corpus hash; a changed
// RNG draw sequence shows up in all four.
func TestSharedInputsMatchRecordedCampaign(t *testing.T) {
	for _, c := range []struct {
		target     string
		policy     Policy
		snapBudget int64
		seed       int64
		execs      uint64
		edges      int
		queue      int
		corpus     string // SHA-256 over every queue entry's Serialize bytes, queue order
	}{
		{"bftpd", PolicyAggressive, 4 << 20, 1, 30450, 908, 801, "86136516872af66ff91af789a30908cd3cda16b91934b4785ae2620ff73063f7"},
		{"tinydtls", PolicyNone, 0, 1, 5816, 890, 666, "3d807f2af2538de3a457db0576d224f2abf1b0646a8a82062a07e21f8286ce13"},
		{"dnsmasq", PolicyAggressive, 0, 2, 8837, 268, 290, "f5985bf018d53d04902cd795f06e249b65fa4ec8768ea3f2060f979ffe997ca1"},
	} {
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
			corpus := hex.EncodeToString(h.Sum(nil))
			if f.Execs() != c.execs || f.Coverage() != c.edges || len(f.Queue) != c.queue || corpus != c.corpus {
				t.Fatalf("campaign diverged from the recorded deep-copy run:\n got execs=%d edges=%d queue=%d corpus=%s\nwant execs=%d edges=%d queue=%d corpus=%s",
					f.Execs(), f.Coverage(), len(f.Queue), corpus, c.execs, c.edges, c.queue, c.corpus)
			}
		})
	}
}
