package targets

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/device"
	"repro/internal/netemu"
	"repro/internal/spec"
	"repro/internal/vm"
)

// diffVM is one of the three machines the differential test drives in step.
type diffVM struct {
	*Instance
	tr coverage.Trace
}

func launchDiffVM(t *testing.T, target string) *diffVM {
	t.Helper()
	// A small VM keeps the whole-image comparisons cheap; every target's
	// state blob and files fit with room to spare.
	inst, err := Launch(target, LaunchConfig{VM: &vm.Config{MemoryPages: 1024, DiskSectors: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	return &diffVM{Instance: inst}
}

// clocked runs f and returns what it charged the VM's virtual clock, from
// before the restore to after the run (Result.VirtTime starts after the
// restore, so it cannot see a restore-charge difference).
func (v *diffVM) clocked(t *testing.T, f func() (netemu.Result, error)) (netemu.Result, time.Duration) {
	t.Helper()
	t0 := v.Agent.Now()
	res, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return res, v.Agent.Now() - t0
}

// state captures everything a test case can leave behind: guest memory as
// a capture writes it, the disk as the guest reads it (every sector, so every
// dirty one), the dirty-sector count the restore charge is computed from, and
// the serial log.
type vmState struct {
	mem, disk, serial []byte
	dirtySectors      int
}

func (v *diffVM) state(t *testing.T) vmState {
	t.Helper()
	st := vmState{
		mem:          make([]byte, v.M.Mem.Size()),
		disk:         make([]byte, v.M.Disk.NumSectors()*device.SectorSize),
		serial:       slices.Clone(v.M.Serial.Log),
		dirtySectors: v.M.Disk.DirtySectors(),
	}
	for sn := uint64(0); sn < v.M.Disk.NumSectors(); sn++ {
		if err := v.M.Disk.ReadSector(sn, st.disk[sn*device.SectorSize:(sn+1)*device.SectorSize]); err != nil {
			t.Fatal(err)
		}
	}
	capture(t, v.Instance)
	if _, err := v.M.Mem.ReadAt(st.mem, 0); err != nil {
		t.Fatal(err)
	}
	return st
}

func (a vmState) diff(b vmState) string {
	switch {
	case !bytes.Equal(a.mem, b.mem):
		return "guest memory differs"
	case !bytes.Equal(a.disk, b.disk):
		return "disk content differs"
	case a.dirtySectors != b.dirtySectors:
		return fmt.Sprintf("dirty sectors %d vs %d", a.dirtySectors, b.dirtySectors)
	case !bytes.Equal(a.serial, b.serial):
		return fmt.Sprintf("serial log %q vs %q", a.serial, b.serial)
	}
	return ""
}

// outcome is the part of a Result that does not depend on where the run
// started: a suffix run reports only its own packets and virtual time.
func outcome(r netemu.Result) string {
	s := fmt.Sprintf("crashed=%v op=%d ops=%d", r.Crashed, r.CrashOp, r.OpsExecuted)
	if r.Crash != nil {
		s += fmt.Sprintf(" %s %q", r.Crash.Kind, r.Crash.Msg)
	}
	return s
}

// sameResult compares two Results field for field, crash reports by value.
func sameResult(a, b netemu.Result) bool {
	same := outcome(a) == outcome(b)
	a.Crash, b.Crash = nil, nil
	return same && a == b
}

// TestSnapshotSlotPathsMatchRootRun is the paper's central claim (§3.2) as a
// differential test over the one snapshot mechanism: three identically
// booted VMs run the same seeded mutants (i) whole from the root snapshot,
// (ii) through the agent's single snapshot (marker run, then RunSuffix) and
// (iii) through pool-style slots (RunCreatingSlot, then RunFromSnapshot, a
// fresh id per round and the old one dropped). Every run must leave the
// same guest memory, disk, dirty-sector count and serial log and report the
// same outcome; a run that takes a snapshot must trace exactly what one
// that takes none traces; and (ii) and (iii), which differ only in slot id
// and release protocol, must agree on Result, bucketed trace and every
// nanosecond of virtual cost. bftpd and exim write the disk.
func TestSnapshotSlotPathsMatchRootRun(t *testing.T) {
	const rounds, suffixes = 6, 5
	for _, target := range []string{"tinydtls", "dnsmasq", "bftpd", "exim"} {
		t.Run(target, func(t *testing.T) {
			root, single, pooled := launchDiffVM(t, target), launchDiffVM(t, target), launchDiffVM(t, target)
			mut := spec.NewMutator(root.Spec, rand.New(rand.NewSource(11)))
			seeds := root.Seeds()
			slot, resumed := 0, 0
			sameState := func(when string) {
				t.Helper()
				ref := root.state(t)
				if d := ref.diff(single.state(t)); d != "" {
					t.Fatalf("%s: root vs single snapshot: %s", when, d)
				}
				if d := ref.diff(pooled.state(t)); d != "" {
					t.Fatalf("%s: root vs slot: %s", when, d)
				}
			}
			for round := 0; round < rounds; round++ {
				base := mut.Mutate(seeds[round%len(seeds)]).Clone() // held across the suffix mutations below
				if len(base.Ops) < 2 {
					continue
				}
				snapAt := 1 + round%(len(base.Ops)-1)
				whole := base.Clone()
				whole.SnapshotAt = -1
				base.SnapshotAt = snapAt

				// The creating runs execute all of base; only (ii) and (iii)
				// stop at the marker to take a snapshot.
				held := single.Agent.HasSnapshot()
				if slot > 0 {
					pooled.Agent.DropSlot(slot)
				}
				slot++
				resI, _ := root.clocked(t, func() (netemu.Result, error) { return root.Agent.RunFromRoot(whole, &root.tr) })
				resII, costII := single.clocked(t, func() (netemu.Result, error) { return single.Agent.RunFromRoot(base, &single.tr) })
				resIII, costIII := pooled.clocked(t, func() (netemu.Result, error) {
					return pooled.Agent.RunCreatingSlot(base, &pooled.tr, -1, slot)
				})
				if held {
					costII -= single.M.Cost.HypercallEntry // (ii) released its previous snapshot by hypercall
				}
				if !sameResult(resII, resIII) || costII != costIII {
					t.Fatalf("round %d create: single %+v (%v) vs slot %+v (%v)", round, resII, costII, resIII, costIII)
				}
				if outcome(resI) != outcome(resII) || resI.PacketsDelivered != resII.PacketsDelivered {
					t.Fatalf("round %d create: from root %+v vs with snapshot %+v", round, resI, resII)
				}
				want := root.tr.Bucketed()
				if !slices.Equal(want, single.tr.Bucketed()) || !slices.Equal(want, pooled.tr.Bucketed()) {
					t.Fatalf("round %d create: taking a snapshot changed the trace", round)
				}
				sameState(fmt.Sprintf("round %d create", round))
				if !resII.SnapshotTaken {
					continue // crashed before the marker: nothing to resume
				}

				for i := 0; i < suffixes; i++ {
					in := base
					if i > 0 { // the first resume replays base's own suffix
						in = mut.MutateSuffix(base, snapAt)
						in.SnapshotAt = snapAt
					}
					whole := in.Clone()
					whole.SnapshotAt = -1
					resI, _ := root.clocked(t, func() (netemu.Result, error) { return root.Agent.RunFromRoot(whole, &root.tr) })
					resII, costII := single.clocked(t, func() (netemu.Result, error) { return single.Agent.RunSuffix(in, &single.tr) })
					resIII, costIII := pooled.clocked(t, func() (netemu.Result, error) {
						return pooled.Agent.RunFromSnapshot(slot, in, &pooled.tr)
					})
					if !sameResult(resII, resIII) || costII != costIII {
						t.Fatalf("round %d suffix %d: single %+v (%v) vs slot %+v (%v)", round, i, resII, costII, resIII, costIII)
					}
					if !slices.Equal(single.tr.Bucketed(), pooled.tr.Bucketed()) {
						t.Fatalf("round %d suffix %d: single and slot traces differ", round, i)
					}
					if outcome(resI) != outcome(resII) {
						t.Fatalf("round %d suffix %d: from root %+v vs resumed %+v", round, i, resI, resII)
					}
					sameState(fmt.Sprintf("round %d suffix %d", round, i))
					resumed++
				}
			}
			if resumed < suffixes {
				t.Fatalf("only %d resumed runs compared: the mutants never reached their markers", resumed)
			}
		})
	}
}
