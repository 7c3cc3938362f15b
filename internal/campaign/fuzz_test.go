package campaign_test

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// Which section of a checkpoint a fuzz input is.
const (
	sectionHeader = iota
	sectionBroker
	sectionSched
	sections
)

// FuzzCheckpointDecode feeds arbitrary bytes to the three decoders a resume
// runs on a checkpoint tree — the header, broker.bin and a worker's sched.bin
// — seeded with the sections of real checkpoints (three targets, two workers,
// after the first round, after one virtual second, and right after resuming
// the latter, when the queue files a resume matched to broker.bin's corpus
// inputs are those inputs' bytes; the VMs run here, none per input), with
// their first halves, and with the last broker.bin with one byte flipped in
// the middle of an input a queue file shares. A decoder never panics, and
// never sizes an allocation by a count its input could not fill (the fuzzing
// engine's memory limit is what notices). The binary sections are canonical: one that decodes encodes back
// to the same bytes. The header is JSON, which has many spellings of one
// value, so there the property is the fixed point: what a decoded header
// encodes to decodes again, to the same bytes.
func FuzzCheckpointDecode(f *testing.F) {
	for _, target := range []string{"tinydtls", "dnsmasq", "bftpd"} {
		c, err := campaign.New(campaign.Config{Target: target, Workers: 2, Policy: core.PolicyAggressive,
			Seed: 1, SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe})
		if err != nil {
			f.Fatal(err)
		}
		// A checkpoint after the first round is a few kilobytes, which is what
		// the mutator gets through quickly; the one after a virtual second
		// has every sequence populated.
		var tree map[string][]byte
		for _, d := range []time.Duration{10 * time.Millisecond, 990 * time.Millisecond, 0} {
			if d == 0 { // the resumed copy of the last checkpoint, before its first round
				if c, err = campaign.ResumeTree(tree); err != nil {
					f.Fatal(err)
				}
			} else if err := c.RunFor(d); err != nil {
				f.Fatal(err)
			}
			if tree, err = c.CheckpointTree(); err != nil {
				f.Fatal(err)
			}
			for _, key := range slices.Sorted(maps.Keys(tree)) {
				section, raw := -1, tree[key]
				switch {
				case key == campaign.ManifestFile:
					section = sectionHeader
				case key == campaign.BrokerFile:
					section = sectionBroker
				case strings.HasSuffix(key, "/"+core.SchedStateFile):
					section = sectionSched
				default:
					continue
				}
				if !decodesCanonically(f, section, raw) {
					f.Fatalf("%s: %s of a real checkpoint does not decode", target, key)
				}
				f.Add(section, raw)
				f.Add(section, raw[:len(raw)/2])
			}
		}
		brokerBin := tree[campaign.BrokerFile]
		for _, key := range slices.Sorted(maps.Keys(tree)) {
			if at := bytes.Index(brokerBin, tree[key]); strings.Contains(key, "/queue/") && at >= 0 {
				flipped := bytes.Clone(brokerBin)
				flipped[at+len(tree[key])/2] ^= 0xff
				f.Add(sectionBroker, flipped)
				break
			}
		}
	}
	f.Fuzz(func(t *testing.T, section int, raw []byte) {
		decodesCanonically(t, ((section%sections)+sections)%sections, raw)
	})
}

// decodesCanonically runs one section's decoder on raw, fails t if what
// decoded does not encode back to raw, and reports whether raw decoded.
func decodesCanonically(t testing.TB, section int, raw []byte) bool {
	var again []byte
	var err error
	switch section {
	case sectionHeader:
		if raw, err = campaign.ReencodeManifest(raw); err == nil {
			if again, err = campaign.ReencodeManifest(raw); err != nil {
				t.Fatalf("a header the encoder wrote does not decode: %v", err)
			}
		}
	case sectionBroker:
		again, err = campaign.ReencodeBroker(raw, 2)
	case sectionSched:
		again, err = campaign.ReencodeSched(raw)
	}
	if err == nil && !bytes.Equal(again, raw) {
		t.Fatalf("section %d: %d bytes decoded and re-encoded to %d different bytes", section, len(raw), len(again))
	}
	return err == nil
}
