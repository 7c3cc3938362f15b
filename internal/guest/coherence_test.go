package guest_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/targets"
	"repro/internal/vm"
)

// stateHeap is where the kernel serializes its state (page 0 is reserved).
const stateHeap = 4096

// captureSlot is the slot capture takes; no test uses it for anything else.
const captureSlot = 1 << 20

// coherentVM drives a kernel event by event, the way the agent does, with a
// capture (which flushes) either after every event or only where the caller
// asks for one.
type coherentVM struct {
	*targets.Instance
	capturePerEvent bool
	conns           []*guest.Conn
}

func launchCoherent(t *testing.T, target string, capturePerEvent bool) *coherentVM {
	t.Helper()
	inst, err := targets.Launch(target, targets.LaunchConfig{VM: &vm.Config{MemoryPages: 256, DiskSectors: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	return &coherentVM{Instance: inst, capturePerEvent: capturePerEvent}
}

// capture writes the guest's state into memory the only way the machine
// does, by taking a snapshot, and drops the snapshot again: afterwards memory
// holds the state and the dirty set holds every page that differs from the
// root, which the next restore resets.
func (v *coherentVM) capture(t *testing.T) {
	t.Helper()
	if err := v.M.TakeIncrementalSlot(captureSlot); err != nil {
		t.Fatal(err)
	}
	v.M.DropSlot(captureSlot)
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
		if v.capturePerEvent {
			v.capture(t)
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
// contract: guest memory at a capture is a function of the guest's state
// alone, however many captures (flushes) came before. Two identically booted
// VMs run the same seeded event sequences, one capturing after every event
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
				lazy.capture(t)
				eager.capture(t)
				if !bytes.Equal(eager.memory(t), lazy.memory(t)) {
					t.Fatalf("%s: guest memory differs (blob %d vs %d bytes)", when, eager.blobLen(t), lazy.blobLen(t))
				}
				if a, b := eager.M.Mem.DirtyCount(), lazy.M.Mem.DirtyCount(); a != b {
					t.Fatalf("%s: dirty pages %d (capture per event) vs %d (one capture)", when, a, b)
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

// TestDiscardRangeMatchesFlush holds the discard hook to the write it stands
// in for: every restore resets and charges the range the hook returns, so that
// range must be the one a flush of the same state writes, or restore charges
// (and every virtual-time number after them) move. Two identically booted VMs
// run seeded mutants, every prefix of each from the root and every longer
// prefix again from a slot taken mid-input, some with a burst of syscalls on
// top. Before every restore the twin flushes; the range the other VM's
// discard hook returns at that restore must equal the range the twin wrote.
// The runs must reach a state whose image outgrew its first page and one
// whose image shrank below the one the restore brought back.
func TestDiscardRangeMatchesFlush(t *testing.T) {
	const rounds = 12
	grown, shrunk := 0, 0
	for _, target := range stateTargets {
		t.Run(target, func(t *testing.T) {
			v, twin := launchCoherent(t, target, false), launchCoherent(t, target, false)
			discard := v.M.GuestHooks.Discard
			var off int64
			var n int
			v.M.GuestHooks.Discard = func() (int64, int) {
				off, n = discard()
				return off, n
			}
			restore := func(when string, slot int) {
				t.Helper()
				wantOff, wantN := twin.K.Flush()
				if wantN > 4+twin.blobLen(t) {
					shrunk++
				}
				if wantN > stateHeap {
					grown++
				}
				off, n = -1, -1
				for _, x := range []*coherentVM{v, twin} {
					var err error
					if slot < 0 {
						err = x.M.RestoreRoot()
					} else {
						err = x.M.RestoreIncrementalSlot(slot)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if off != wantOff || n != wantN {
					t.Fatalf("%s: the restore discarded [%d, +%d), the flush wrote [%d, +%d)", when, off, n, wantOff, wantN)
				}
			}
			run := func(ops []spec.Op, burst int) {
				for _, x := range []*coherentVM{v, twin} {
					x.run(t, ops)
					if burst > 0 {
						x.syscalls(t, burst, burst)
					}
				}
			}
			mut := spec.NewMutator(v.Spec, rand.New(rand.NewSource(37)))
			seeds := v.Seeds()
			for round := 0; round < rounds; round++ {
				in := mut.Mutate(seeds[round%len(seeds)])
				if len(in.Ops) < 2 {
					continue
				}
				at, burst := 1+round%(len(in.Ops)-1), 0
				if round%4 == 3 {
					burst = 24
				}
				for j := 1; j <= len(in.Ops); j++ {
					restore(fmt.Sprintf("round %d: root run of %d ops", round, j-1), -1)
					v.conns, twin.conns = v.conns[:0], twin.conns[:0]
					run(in.Ops[:j], burst*(j%2))
					if j != at {
						continue
					}
					for _, x := range []*coherentVM{v, twin} {
						if err := x.M.TakeIncrementalSlot(1); err != nil {
							t.Fatal(err)
						}
					}
					nconns := len(v.conns)
					for end := at + 1; end <= len(in.Ops); end++ {
						restore(fmt.Sprintf("round %d: slot run to op %d", round, end-1), 1)
						v.conns, twin.conns = v.conns[:nconns], twin.conns[:nconns]
						run(in.Ops[at:end], burst*(end%2))
					}
				}
			}
			restore("last", -1)
		})
	}
	if grown == 0 || shrunk == 0 {
		t.Errorf("the runs reached %d images past one page and %d shrinking ones; need both", grown, shrunk)
	}
}

// TestDiscardMeasureMatchesEncoding holds the discard hook's measuring writer
// to the encoder it stands in for: the target section's length the discard
// charges is what SaveState measures, and it must be what SaveState encodes.
// Every registered target runs each of its seeds, op by op, and seeded mutants
// of them from the root; after every op the two lengths must agree.
func TestDiscardMeasureMatchesEncoding(t *testing.T) {
	for _, name := range targets.Names() {
		t.Run(name, func(t *testing.T) {
			inst, err := targets.Launch(name, targets.LaunchConfig{VM: &vm.Config{MemoryPages: 256, DiskSectors: 4096}})
			if err != nil {
				t.Fatal(err)
			}
			inputs := inst.Seeds()
			mut := spec.NewMutator(inst.Spec, rand.New(rand.NewSource(41)))
			mut.Dict = inst.Info.Dict
			for i := 0; i < 16; i++ {
				inputs = append(inputs, mut.Mutate(inputs[i%len(inst.Seeds())]).Clone())
			}
			longest := 0
			for i, in := range inputs {
				for j := range in.Ops {
					if _, err := inst.Agent.RunFromRoot(&spec.Input{Ops: in.Ops[:j+1], SnapshotAt: -1}, nil); err != nil {
						t.Fatal(err)
					}
					measured, encoded := inst.K.MeasuredStateLen()
					if measured != encoded {
						t.Fatalf("input %d after op %d: the target section measures %d bytes and encodes to %d", i, j, measured, encoded)
					}
					longest = max(longest, encoded)
				}
			}
			t.Logf("longest target section: %d bytes", longest)
		})
	}
}
