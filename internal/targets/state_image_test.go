package targets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/golden"
	"repro/internal/spec"
	"repro/internal/vm"
)

const (
	stateImageFile = "testdata/state_images.json"
	// stateHeap is where the kernel serializes its state (page 0 is reserved).
	stateHeap = 4096
	// stateMutants is how many seeded mutants of its seeds each target runs
	// on top of them.
	stateMutants = 32
)

// stateImages is what one target left in guest memory: per seed, the
// SHA-256 of the state image (length header and blob) after every op, and
// one digest over the images of every op of every mutant.
type stateImages struct {
	Seeds   [][]string `json:"seeds"`
	Mutants string     `json:"mutants"`
}

// captureSlot is the slot capture takes; no test uses it for anything else.
const captureSlot = 1 << 20

// capture writes the guest's state into memory the only way the machine
// does, by taking a snapshot, and drops the snapshot again.
func capture(t *testing.T, inst *Instance) {
	t.Helper()
	if err := inst.M.TakeIncrementalSlot(captureSlot); err != nil {
		t.Fatal(err)
	}
	inst.M.DropSlot(captureSlot)
}

// imageAfter runs ops from the root and returns the state image a capture at
// the end of the run leaves at stateHeap.
func imageAfter(t *testing.T, inst *Instance, ops []spec.Op) []byte {
	t.Helper()
	if _, err := inst.Agent.RunFromRoot(&spec.Input{Ops: ops, SnapshotAt: -1}, nil); err != nil {
		t.Fatal(err)
	}
	capture(t, inst)
	var hdr [4]byte
	if _, err := inst.M.Mem.ReadAt(hdr[:], stateHeap); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 4+binary.LittleEndian.Uint32(hdr[:]))
	if _, err := inst.M.Mem.ReadAt(img, stateHeap); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestEveryTargetStateImageMatchesRecorded pins every byte a target's state
// takes in guest memory: every registered target runs each of its seeds, and
// seeded mutants of them, op by op from the root with a capture after each
// op, and the image at every capture must be the recorded one. A container that
// drops a zero-valued entry, orders keys differently or encodes a count
// differently fails on the first op that touches it. Dirty page counts, and
// with them every virtual-time charge, are a function of these bytes.
//
// Provenance of testdata/state_images.json: recorded at the last commit whose
// targets kept their per-connection state in Go maps encoded by
// StateWriter.IntMap and StringMap (PR 18); reproduced unmodified by the
// ordered tables (PR 19) and by the PR 20 tree that held everything but the
// new randData. At PR 20 the per-target mutants digests, and nothing else,
// were re-recorded for randData's draw sequence: the mutants are different
// inputs now; every per-seed, per-op hash is byte-identical. Re-record
// (NYX_UPDATE_GOLDEN=1) only at a tree whose behavioural difference from a
// passing tree is the change being blessed and nothing else — the mutator's
// draw sequence (mutants only) or a deliberate change of the image format —
// never to make a refactoring pass.
func TestEveryTargetStateImageMatchesRecorded(t *testing.T) {
	got := map[string]stateImages{}
	for _, name := range Names() {
		inst, err := Launch(name, LaunchConfig{VM: &vm.Config{MemoryPages: 256, DiskSectors: 4096}})
		if err != nil {
			t.Fatal(err)
		}
		var rec stateImages
		seeds := inst.Seeds()
		for _, seed := range seeds {
			var hashes []string
			for i := range seed.Ops {
				sum := sha256.Sum256(imageAfter(t, inst, seed.Ops[:i+1]))
				hashes = append(hashes, hex.EncodeToString(sum[:]))
			}
			rec.Seeds = append(rec.Seeds, hashes)
		}
		mut := spec.NewMutator(inst.Spec, rand.New(rand.NewSource(19)))
		mut.Dict = inst.Info.Dict
		all := sha256.New()
		for i := 0; i < stateMutants; i++ {
			ops := mut.Mutate(seeds[i%len(seeds)]).Clone().Ops
			for j := range ops {
				all.Write(imageAfter(t, inst, ops[:j+1]))
			}
		}
		rec.Mutants = hex.EncodeToString(all.Sum(nil))
		got[name] = rec
	}

	if golden.Updating() {
		golden.Write(t, stateImageFile, got)
		return
	}
	var want map[string]stateImages
	golden.Read(t, stateImageFile, &want)
	if len(want) != len(got) {
		t.Fatalf("%d targets recorded, %d registered", len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		if len(g.Seeds) != len(w.Seeds) {
			t.Errorf("%s: %d seeds recorded, %d bundled", name, len(w.Seeds), len(g.Seeds))
			continue
		}
		for s := range w.Seeds {
			if len(g.Seeds[s]) != len(w.Seeds[s]) {
				t.Errorf("%s: seed %d has %d ops, %d recorded", name, s, len(g.Seeds[s]), len(w.Seeds[s]))
				continue
			}
			for op := range w.Seeds[s] {
				if g.Seeds[s][op] != w.Seeds[s][op] {
					t.Errorf("%s: seed %d: the state image after op %d is not the recorded one", name, s, op)
					break
				}
			}
		}
		if g.Mutants != w.Mutants {
			t.Errorf("%s: the state images of the %d mutants are not the recorded ones", name, stateMutants)
		}
	}
}
