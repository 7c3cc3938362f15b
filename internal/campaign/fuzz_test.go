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
	"repro/internal/coverage"
	"repro/internal/store"
)

// Which section of a checkpoint a fuzz input is.
const (
	sectionHeader = iota
	sectionBroker
	sectionSched
	sectionVirgin
	sections
)

// FuzzCheckpointDecode feeds arbitrary bytes to the four decoders a resume
// runs on a checkpoint tree — the header, broker.bin against the queue files
// of the tree it came from, a worker's sched.bin and virgin.bin — seeded with the
// sections of real checkpoints (three targets, two workers, after the first
// round, after one virtual second, and right after resuming the latter, when
// the queue files broker.bin names as its corpus entries' holders are those
// inputs' bytes; the VMs run here, none per input; each dnsmasq tree holds a
// crash record, site included), with their first halves,
// with the last broker.bin against its tree with one byte flipped in the
// middle of the first queue file, which a corpus entry names, and with that
// broker.bin's claims section rewritten in the four ways the encoder never
// writes it (campaign.BadClaimSections), none of which decodes. A decoder
// never panics, and never sizes an allocation by a count its input could not
// fill (the fuzzing engine's memory limit is what notices). The binary sections
// are canonical: one that decodes encodes back to the same bytes. The header
// is JSON, which has many spellings of one value, so there the property is
// the fixed point: what a decoded header encodes to decodes again, to the
// same bytes.
func FuzzCheckpointDecode(f *testing.F) {
	var trees []store.Tree // the trees broker.bin seeds are decoded against
	for _, target := range []string{"tinydtls", "dnsmasq", "bftpd"} {
		c, err := campaign.New(campaign.Config{Target: target, Workers: 2, Policy: core.PolicyAggressive,
			Seed: 1, SyncInterval: 500 * time.Millisecond, Power: core.PowerCoe})
		if err != nil {
			f.Fatal(err)
		}
		// A checkpoint after the first round is a few kilobytes, which is what
		// the mutator gets through quickly; the one after a virtual second
		// has every sequence populated.
		var tree store.Tree
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
			if s, err := campaign.Summarize(tree); target == "dnsmasq" && (err != nil || s.Crashes == 0) {
				f.Fatalf("a dnsmasq checkpoint holds no crash record (%v)", err)
			}
			trees = append(trees, tree)
			for _, key := range slices.Sorted(maps.Keys(tree)) {
				section, raw := -1, tree[key]
				switch {
				case key == campaign.ManifestFile:
					section = sectionHeader
				case key == campaign.BrokerFile:
					section = sectionBroker
				case strings.HasSuffix(key, "/"+core.SchedStateFile):
					section = sectionSched
				case key == campaign.VirginFile:
					section = sectionVirgin
				default:
					continue
				}
				if !decodesCanonically(f, section, tree, raw) {
					f.Fatalf("%s: %s of a real checkpoint does not decode", target, key)
				}
				f.Add(section, len(trees)-1, raw)
				f.Add(section, len(trees)-1, raw[:len(raw)/2])
			}
		}
		flipped := maps.Clone(tree)
		victim := "worker-000/queue/id-000000.nyx"
		flipped[victim] = bytes.Clone(tree[victim])
		flipped[victim][len(tree[victim])/2] ^= 0xff
		trees = append(trees, flipped)
		f.Add(sectionBroker, len(trees)-1, tree[campaign.BrokerFile])
		bad := campaign.BadClaimSections(tree[campaign.BrokerFile])
		for _, name := range slices.Sorted(maps.Keys(bad)) {
			if decodesCanonically(f, sectionBroker, tree, bad[name]) {
				f.Fatalf("%s: the %q claims section decodes", target, name)
			}
			f.Add(sectionBroker, len(trees)-2, bad[name])
		}
	}
	f.Fuzz(func(t *testing.T, section, tree int, raw []byte) {
		decodesCanonically(t, ((section%sections)+sections)%sections, trees[((tree%len(trees))+len(trees))%len(trees)], raw)
	})
}

// decodesCanonically runs one section's decoder on raw (broker.bin against
// tree's queue files), fails t if what decoded does not encode back to raw,
// and reports whether raw decoded.
func decodesCanonically(t testing.TB, section int, tree store.Tree, raw []byte) bool {
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
		again, err = campaign.ReencodeBroker(raw, 2, tree)
	case sectionSched:
		again, err = campaign.ReencodeSched(raw)
	case sectionVirgin:
		var v coverage.Virgin
		if err = v.UnmarshalBinary(raw); err == nil {
			again, err = v.MarshalBinary()
		}
	}
	if err == nil && !bytes.Equal(again, raw) {
		t.Fatalf("section %d: %d bytes decoded and re-encoded to %d different bytes", section, len(raw), len(again))
	}
	return err == nil
}
