package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/spec"
)

// stubExec is a SlotExecutor that always hits the same single probe
// location, so only the very first execution finds new coverage and every
// later round is barren — the worst case the aggressive policy's retreat
// accounting has to handle. It keeps each slot's marker, charges a
// millisecond per run and logs every call the fuzzer makes (stubCall).
type stubExec struct {
	loc   uint32
	now   time.Duration
	slots map[int]int // held slot -> its marker
	calls []stubCall
}

// stubCall is one executor call: its method, its slot arguments (-2 where
// the method has none) and the input's marker.
type stubCall struct {
	method         string
	from, slot, at int
}

func (s *stubExec) call(method string, from, slot int, in *spec.Input, tr *coverage.Trace) {
	at := -1
	if in != nil {
		at = in.SnapshotAt
	}
	s.calls = append(s.calls, stubCall{method, from, slot, at})
	if tr != nil {
		tr.Reset()
		tr.Hit(s.loc)
	}
	if in != nil {
		s.now += time.Millisecond
	}
}

func (s *stubExec) RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	s.call("RunFromRoot", -2, -2, in, tr)
	return netemu.Result{OpsExecuted: len(in.Ops), CrashOp: -1}, nil
}

func (s *stubExec) RunCreatingSlot(in *spec.Input, tr *coverage.Trace, fromSlot, newSlot int) (netemu.Result, error) {
	s.call("RunCreatingSlot", fromSlot, newSlot, in, tr)
	if s.slots == nil {
		s.slots = map[int]int{}
	}
	s.slots[newSlot] = in.SnapshotAt
	return netemu.Result{OpsExecuted: len(in.Ops), CrashOp: -1, SnapshotTaken: true, FromSnapshot: fromSlot >= 0}, nil
}

func (s *stubExec) RunFromSnapshot(slot int, in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	s.call("RunFromSnapshot", -2, slot, in, tr)
	if at, ok := s.slots[slot]; !ok || at != in.SnapshotAt {
		return netemu.Result{}, netemu.ErrNoSnapshot
	}
	return netemu.Result{OpsExecuted: len(in.Ops), CrashOp: -1, FromSnapshot: true}, nil
}

func (s *stubExec) RunSuffix(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	s.call("RunSuffix", -2, -2, in, tr)
	return netemu.Result{}, netemu.ErrNoSnapshot
}

func (s *stubExec) DropSlot(slot int) {
	s.call("DropSlot", -2, slot, nil, nil)
	delete(s.slots, slot)
}

func (s *stubExec) DropSnapshot() {
	s.call("DropSnapshot", -2, -2, nil, nil)
	delete(s.slots, roundSlot)
}

func (s *stubExec) HasSnapshot() bool {
	s.call("HasSnapshot", -2, -2, nil, nil)
	return false
}

func (s *stubExec) SlotBytes(int) int64      { return 4096 }
func (s *stubExec) SlotProfile(int) any      { return nil }
func (s *stubExec) SeedSlotProfile(int, any) {}
func (s *stubExec) Now() time.Duration       { return s.now }

// stubSpecInput builds a raw-packet spec and a five-packet session against
// it (long enough that the placement policies use incremental snapshots).
func stubSpecInput() (*spec.Spec, *spec.Input) {
	s := spec.RawPacketSpec("stub", []guest.Port{{Proto: guest.TCP, Num: 9}})
	con, _ := s.NodeByName("connect_tcp_9")
	pkt, _ := s.NodeByName("packet")
	cls, _ := s.NodeByName("close")
	in := spec.NewInput(spec.Op{Node: con})
	for i := 0; i < 5; i++ {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte{byte('a' + i)}})
	}
	in.Ops = append(in.Ops, spec.Op{Node: cls, Args: []uint16{0}})
	return s, in
}

// With a non-default SnapshotReuse, the aggressive policy must still wait
// for AggressiveRetreatThreshold unproductive iterations before retreating,
// not retreat after every single barren round (§3.4), whether a round is
// barren because its suffix runs find nothing or because its creation run
// crashes before the marker. Pinned to the round-robin scheduler, whose
// per-round budget is exactly SnapshotReuse; the AFL scheduler scales
// budgets per entry (see schedule_test.go).
func TestAggressiveRetreatHonorsThreshold(t *testing.T) {
	const reuse = 10
	for _, tc := range []struct {
		name string
		exec Executor
	}{
		{"barren suffixes", &stubExec{loc: 123}},
		// The seed's marker sits after its last packet, op 5: creation
		// crashes there until the position retreats.
		{"crashing prefix", &crashStallExec{stubExec: stubExec{loc: 123}, crashOp: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, seed := stubSpecInput()
			f := New(tc.exec, s, Options{
				Policy:        PolicyAggressive,
				Seeds:         []*spec.Input{seed},
				SnapshotReuse: reuse,
				Sched:         SchedRoundRobin,
				Rand:          rand.New(rand.NewSource(1)),
			})
			if err := f.Step(); err != nil { // seed import round
				t.Fatal(err)
			}
			if len(f.Queue) != 1 {
				t.Fatalf("queue = %d entries, want 1", len(f.Queue))
			}
			e := f.Queue[0]
			rounds := AggressiveRetreatThreshold / reuse
			for i := 0; i < rounds-1; i++ {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
				if e.aggrBack != 0 {
					t.Fatalf("retreated after %d barren iterations, want %d before retreat",
						(i+1)*reuse, AggressiveRetreatThreshold)
				}
			}
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
			if e.aggrBack != 1 {
				t.Fatalf("aggrBack = %d after %d barren iterations, want 1", e.aggrBack, rounds*reuse)
			}
			if e.aggrBarren != 0 {
				t.Fatalf("aggrBarren = %d after retreat, want 0", e.aggrBarren)
			}
		})
	}
}

// Queue entries must carry a coverage snapshot that reproduces the entry's
// classified trace against a fresh virgin map (the broker's dedup input).
func TestQueueEntriesCarryCoverage(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 3)
	if err := f.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(f.Queue) == 0 {
		t.Fatal("no queue entries")
	}
	var global coverage.Virgin
	for _, e := range f.Queue {
		if len(e.Cov) == 0 {
			t.Fatalf("entry %d has no coverage snapshot", e.ID)
		}
		global.MergeBuckets(e.Cov)
	}
	if global.Edges() == 0 {
		t.Fatal("merged snapshots produced no edges")
	}
	if global.Edges() > f.Coverage() {
		t.Fatalf("snapshot union %d edges exceeds campaign coverage %d", global.Edges(), f.Coverage())
	}
}

func TestImportInputCrossFuzzer(t *testing.T) {
	instA := launch(t, "lightftp")
	fA := newFuzzer(t, instA, PolicyNone, 1)
	if err := fA.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fA.Queue) == 0 {
		t.Fatal("donor campaign has no queue entries")
	}

	// A fresh, seedless fuzzer on a second instance imports A's corpus.
	instB := launch(t, "lightftp")
	fB := New(instB.Agent, instB.Spec, Options{
		Policy: PolicyNone,
		Rand:   rand.New(rand.NewSource(99)),
	})
	interesting := 0
	for _, e := range fA.Queue {
		ok, err := fB.ImportInput(e.Input)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			interesting++
		}
	}
	if interesting == 0 || fB.Coverage() == 0 {
		t.Fatalf("imports found nothing (interesting=%d, coverage=%d)", interesting, fB.Coverage())
	}
	if len(fB.Queue) != interesting {
		t.Fatalf("queue = %d entries, want %d (one per interesting import)", len(fB.Queue), interesting)
	}

	// Re-importing the same inputs must be a no-op (dedup by coverage).
	for _, e := range fA.Queue {
		ok, err := fB.ImportInput(e.Input)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("re-import of an already-covered input was interesting")
		}
	}

	// Malformed inputs are rejected before execution.
	bad := spec.NewInput(spec.Op{Node: 9999})
	if _, err := fB.ImportInput(bad); err == nil {
		t.Fatal("invalid input accepted")
	}
}

// ImportInput must not mutate the caller's input (workers share published
// entries by reference).
func TestImportInputDoesNotMutateArgument(t *testing.T) {
	inst := launch(t, "lightftp")
	f := New(inst.Agent, inst.Spec, Options{
		Policy: PolicyNone,
		Rand:   rand.New(rand.NewSource(4)),
	})
	seeds := inst.Seeds()
	in := seeds[0]
	in.SnapshotAt = 2
	before := len(in.Ops)
	if _, err := f.ImportInput(in); err != nil {
		t.Fatal(err)
	}
	if in.SnapshotAt != 2 || len(in.Ops) != before {
		t.Fatal("import mutated the donor input")
	}
}
