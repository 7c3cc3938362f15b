package guest_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/targets"
	"repro/internal/vm"
)

// stateHeap is where the kernel serializes its state (page 0 is reserved).
const stateHeap = 4096

// coherentVM drives a kernel event by event, the way the agent does, with a
// VM exit (which flushes) either after every event or only where the caller
// asks for one.
type coherentVM struct {
	*targets.Instance
	exitPerEvent bool
	conns        []*guest.Conn
}

func launchCoherent(t *testing.T, target string, exitPerEvent bool) *coherentVM {
	t.Helper()
	inst, err := targets.Launch(target, targets.LaunchConfig{VM: &vm.Config{MemoryPages: 256, DiskSectors: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	return &coherentVM{Instance: inst, exitPerEvent: exitPerEvent}
}

// vmExit is an informational hypercall: it charges the clock and flushes
// the guest, and touches memory in no other way.
func (v *coherentVM) vmExit(t *testing.T) {
	t.Helper()
	if err := v.M.Hypercall(vm.HcExecDone); err != nil {
		t.Fatal(err)
	}
}

// event runs one op against the kernel and reports whether the target
// crashed in it.
func (v *coherentVM) event(t *testing.T, op spec.Op) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*guest.CrashError); !ok {
				panic(r)
			}
			crashed = true
		}
		if v.exitPerEvent {
			v.vmExit(t)
		}
	}()
	nt := v.Spec.Nodes[op.Node]
	var c *guest.Conn
	if nt.Kind != spec.KindConnect {
		if len(op.Args) == 0 || int(op.Args[0]) >= len(v.conns) {
			return false
		}
		c = v.K.Conn(v.conns[op.Args[0]].ID)
	}
	switch nt.Kind {
	case spec.KindConnect:
		nc, _, err := v.K.NewConnection(nt.Port)
		if err != nil {
			t.Fatal(err)
		}
		v.conns = append(v.conns, nc)
	case spec.KindPacket:
		if c != nil && !c.Closed {
			if err := v.K.Deliver(c, op.Data); err != nil {
				t.Fatal(err)
			}
		}
	case spec.KindClose:
		if c != nil {
			v.K.CloseConn(c)
		}
	}
	return false
}

// run executes ops until one crashes and returns how many ran cleanly.
func (v *coherentVM) run(t *testing.T, ops []spec.Op) int {
	t.Helper()
	for i, op := range ops {
		if v.event(t, op) {
			return i
		}
	}
	return len(ops)
}

func (v *coherentVM) blobLen(t *testing.T) int {
	t.Helper()
	var hdr [4]byte
	if _, err := v.M.Mem.ReadAt(hdr[:], stateHeap); err != nil {
		t.Fatal(err)
	}
	return int(binary.LittleEndian.Uint32(hdr[:]))
}

func (v *coherentVM) memory(t *testing.T) []byte {
	t.Helper()
	buf := make([]byte, v.M.Mem.Size())
	if _, err := v.M.Mem.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFlushPerExitMatchesFlushPerEvent is the dirty half of the coherence
// contract: guest memory at a VM exit is a function of the guest's state
// alone, however many exits (flushes) came before. Two identically booted
// VMs run the same seeded event sequences, one exiting after every event
// (what serialize-after-every-event used to leave in memory), one only at
// the snapshot marker and at the end; both must hold byte-identical memory
// and the same dirty-page count, so a restore charges the same. Each round
// runs from the root and again from a slot taken mid-input, which puts a
// restore directly before the suffix's first event.
func TestFlushPerExitMatchesFlushPerEvent(t *testing.T) {
	const rounds = 24
	shrinks, firstEventCrashes := 0, 0
	for _, target := range []string{"tinydtls", "dnsmasq", "bftpd", "exim"} {
		t.Run(target, func(t *testing.T) {
			eager, lazy := launchCoherent(t, target, true), launchCoherent(t, target, false)
			mut := spec.NewMutator(eager.Spec, rand.New(rand.NewSource(23)))
			seeds := eager.Seeds()
			same := func(when string) {
				t.Helper()
				lazy.vmExit(t)
				eager.vmExit(t)
				if !bytes.Equal(eager.memory(t), lazy.memory(t)) {
					t.Fatalf("%s: guest memory differs (blob %d vs %d bytes)", when, eager.blobLen(t), lazy.blobLen(t))
				}
				if a, b := eager.M.Mem.DirtyCount(), lazy.M.Mem.DirtyCount(); a != b {
					t.Fatalf("%s: dirty pages %d (exit per event) vs %d (one exit)", when, a, b)
				}
			}
			for round := 0; round < rounds; round++ {
				in := mut.Mutate(seeds[round%len(seeds)]).Clone() // held across MutateSuffix below
				if len(in.Ops) < 2 {
					continue
				}
				at := 1 + round%(len(in.Ops)-1)
				for _, v := range []*coherentVM{eager, lazy} {
					if err := v.M.RestoreRoot(); err != nil {
						t.Fatal(err)
					}
					v.conns = v.conns[:0]
				}
				if n := eager.run(t, in.Ops[:at]); n != lazy.run(t, in.Ops[:at]) {
					t.Fatalf("round %d: prefixes crashed at different ops", round)
				} else if n < at {
					same("crashed prefix")
					continue
				}
				for _, v := range []*coherentVM{eager, lazy} {
					if err := v.M.TakeIncrementalSlot(1); err != nil {
						t.Fatal(err)
					}
				}
				atMarker, nconns := eager.blobLen(t), len(eager.conns)
				eager.run(t, in.Ops[at:])
				lazy.run(t, in.Ops[at:])
				same("root run")
				if eager.blobLen(t) < atMarker {
					shrinks++
				}

				// The suffix again, from the slot: a restore, then events.
				for pass := 0; pass < 2; pass++ {
					suffix := in.Ops[at:]
					if pass == 1 {
						suffix = mut.MutateSuffix(in, at).Ops[at:]
					}
					for _, v := range []*coherentVM{eager, lazy} {
						if err := v.M.RestoreIncrementalSlot(1); err != nil {
							t.Fatal(err)
						}
						v.conns = v.conns[:nconns]
					}
					n := eager.run(t, suffix)
					if m := lazy.run(t, suffix); n != m {
						t.Fatalf("round %d: suffixes crashed at ops %d and %d", round, n, m)
					}
					if n == 0 && len(suffix) > 0 {
						firstEventCrashes++
					}
					same("slot run")
				}
			}
		})
	}
	// The two cases the seeded inputs are there to reach: a flush that has
	// to clear what a longer blob left behind, and a handler that crashes
	// before any other event has dirtied the restored state.
	if shrinks == 0 || firstEventCrashes == 0 {
		t.Errorf("inputs reached %d shrinking blobs and %d crashes on the first event after a restore; need both", shrinks, firstEventCrashes)
	}
}
