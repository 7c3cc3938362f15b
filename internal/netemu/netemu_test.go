package netemu

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/vm"
)

// ftpish is a tiny stateful protocol target: USER -> PASS -> STOR sequence;
// a crash hides behind the full sequence plus a magic payload.
type ftpish struct {
	Auth  guest.Table[int] // conn -> 0 anon, 1 user-given, 2 authed
	Stors int
}

func newFtpish() *ftpish { return &ftpish{} }

func (t *ftpish) Name() string        { return "ftpish" }
func (t *ftpish) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 21}} }
func (t *ftpish) Init(env *guest.Env) error {
	return env.FS().WriteFile("/etc/motd", []byte("welcome"))
}
func (t *ftpish) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(10)
	env.Send(c, []byte("220 ready\r\n"))
}
func (t *ftpish) OnDisconnect(env *guest.Env, c *guest.Conn) {}

func (t *ftpish) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	cmd := string(data)
	switch {
	case strings.HasPrefix(cmd, "USER "):
		env.Cov(20)
		t.Auth.Set(c.ID, 1)
		env.Send(c, []byte("331 pw?\r\n"))
	case strings.HasPrefix(cmd, "PASS ") && t.Auth.Get(c.ID) == 1:
		env.Cov(30)
		t.Auth.Set(c.ID, 2)
		env.Send(c, []byte("230 ok\r\n"))
	case strings.HasPrefix(cmd, "STOR ") && t.Auth.Get(c.ID) == 2:
		env.Cov(40)
		t.Stors++
		if strings.Contains(cmd, "BOOM") {
			env.Cov(50)
			env.Crash(guest.CrashSegfault, "stor of doom")
		}
		env.FS().WriteFile("/srv/upload", data) //nolint:errcheck
		env.Send(c, []byte("150 go\r\n"))
	default:
		env.Cov(60)
		env.Send(c, []byte("500 ?\r\n"))
	}
}

func (t *ftpish) SaveState(w *guest.StateWriter) {
	w.Int(t.Stors)
	w.IntTable(&t.Auth)
}

func (t *ftpish) LoadState(r *guest.StateReader) {
	t.Stors = r.Int()
	r.IntTable(&t.Auth)
}

func setup(t *testing.T) (*Agent, *spec.Spec, *ftpish) {
	t.Helper()
	m := vm.New(vm.Config{MemoryPages: 1024, DiskSectors: 4096})
	tgt := newFtpish()
	k, err := guest.NewKernel(m, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Hypercall(vm.HcReady); err != nil {
		t.Fatal(err)
	}
	s := spec.RawPacketSpec("ftpish", tgt.Ports())
	return New(m, k, s), s, tgt
}

func seq(s *spec.Spec, payloads ...string) *spec.Input {
	con, _ := s.NodeByName("connect_tcp_21")
	pkt, _ := s.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con})
	for _, p := range payloads {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte(p)})
	}
	return in
}

func TestRunFromRootBasic(t *testing.T) {
	a, s, tgt := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b", "STOR f")
	res, err := a.RunFromRoot(in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatalf("unexpected crash: %v", res.Crash)
	}
	if res.OpsExecuted != 4 || res.PacketsDelivered != 3 {
		t.Fatalf("ops=%d pkts=%d", res.OpsExecuted, res.PacketsDelivered)
	}
	if tgt.Stors != 1 {
		t.Fatalf("stors = %d", tgt.Stors)
	}
	if tr.CountEdges() == 0 {
		t.Fatal("no coverage recorded")
	}
	if res.VirtTime <= 0 {
		t.Fatal("virtual time not charged")
	}
}

func TestStateResetBetweenRuns(t *testing.T) {
	a, s, tgt := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b", "STOR f")
	for i := 0; i < 5; i++ {
		if _, err := a.RunFromRoot(in, &tr); err != nil {
			t.Fatal(err)
		}
	}
	// Stors must not accumulate across runs: every run starts pristine.
	if tgt.Stors != 1 {
		t.Fatalf("state leaked across executions: stors = %d", tgt.Stors)
	}
	if a.K.FS.Exists("/srv/upload") {
		// The last run's file exists until the next restore; run an
		// empty input to restore and verify it is gone.
		if _, err := a.RunFromRoot(spec.NewInput(), &tr); err != nil {
			t.Fatal(err)
		}
		if a.K.FS.Exists("/srv/upload") {
			t.Fatal("filesystem state leaked across executions")
		}
	}
}

func TestCrashDetection(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b", "STOR BOOM")
	res, err := a.RunFromRoot(in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || res.Crash.Kind != guest.CrashSegfault {
		t.Fatalf("expected segfault, got %+v", res)
	}
	if res.CrashOp != 3 {
		t.Fatalf("crash op = %d, want 3", res.CrashOp)
	}
	// The machine must still be usable after a crash.
	res2, err := a.RunFromRoot(seq(s, "USER a"), &tr)
	if err != nil || res2.Crashed {
		t.Fatalf("machine unusable after crash: %v %+v", err, res2)
	}
}

func TestIncrementalSnapshotSuffixRuns(t *testing.T) {
	a, s, tgt := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b", "STOR f")
	in.SnapshotAt = 3 // after connect + USER + PASS

	res, err := a.RunCreatingSlot(in, &tr, -1, singleSlot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotTaken || !a.HasSlot(singleSlot) {
		t.Fatal("snapshot not taken at marker")
	}

	// Mutate only the suffix and rerun from the snapshot many times.
	for i := 0; i < 10; i++ {
		mut := in.Clone()
		mut.Ops[3].Data = []byte("STOR g")
		res, err := a.RunFromSnapshot(singleSlot, mut, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FromSnapshot {
			t.Fatal("expected snapshot resume")
		}
		if res.Crashed {
			t.Fatalf("unexpected crash: %v", res.Crash)
		}
		// Auth state from the prefix must be live: STOR must succeed.
		if tgt.Stors != 1 {
			t.Fatalf("iteration %d: stors = %d (prefix state lost or leaked)", i, tgt.Stors)
		}
	}

	// A crash found from the snapshot must reproduce from root.
	mut := in.Clone()
	mut.Ops[3].Data = []byte("STOR BOOM")
	resS, err := a.RunFromSnapshot(singleSlot, mut, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if !resS.Crashed {
		t.Fatal("suffix run should crash")
	}
	resF, err := a.RunFromRoot(mut, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if !resF.Crashed || resF.Crash.Kind != resS.Crash.Kind {
		t.Fatal("crash does not reproduce from root")
	}
}

// A custom opcode's handler runs outside any kernel event, so the agent must
// declare the mutation itself: as the first op after a restore it would
// otherwise write to the stale struct form (lost at the next hydrate), and a
// snapshot marker directly after it would capture pre-op memory, so resumed
// runs diverged from the root run.
func TestCustomOpStateReachesSnapshot(t *testing.T) {
	a, s, tgt := setup(t)
	bump := s.Node(spec.NodeType{Name: "bump", Kind: spec.KindCustom})
	a.RegisterCustom(bump, func(env *guest.Env, data []byte, args []Value) []Value {
		tgt.Stors += 7
		return nil
	})
	in := seq(s, "USER a")
	in.Ops = append([]spec.Op{{Node: bump}}, in.Ops...)
	// guestMemory captures the state, which writes it into guest memory (the
	// end of a run does not), and reads memory back.
	const capture = 1 << 20
	guestMemory := func() []byte {
		if err := a.M.TakeIncrementalSlot(capture); err != nil {
			t.Fatal(err)
		}
		a.M.DropSlot(capture)
		buf := make([]byte, a.M.Mem.Size())
		if _, err := a.M.Mem.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}

	var tr coverage.Trace
	if _, err := a.RunFromRoot(in, &tr); err != nil {
		t.Fatal(err)
	}
	if tgt.Stors != 7 {
		t.Fatalf("root run: stors = %d, want 7", tgt.Stors)
	}
	fromRoot := guestMemory()

	in.SnapshotAt = 1 // directly after the custom op
	if res, err := a.RunCreatingSlot(in, &tr, -1, singleSlot); err != nil || !res.SnapshotTaken {
		t.Fatalf("marker run: snapshot taken = %v, err = %v", res.SnapshotTaken, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.RunFromSnapshot(singleSlot, in, &tr); err != nil {
			t.Fatal(err)
		}
		if tgt.Stors != 7 {
			t.Fatalf("suffix run %d: stors = %d, want 7 (the snapshot missed the custom op)", i, tgt.Stors)
		}
		if !bytes.Equal(guestMemory(), fromRoot) {
			t.Fatalf("suffix run %d: guest memory differs from the root run's", i)
		}
	}
}

func TestSuffixRequiresSnapshot(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a")
	in.SnapshotAt = 1
	if _, err := a.RunFromSnapshot(singleSlot, in, &tr); err != ErrNoSnapshot {
		t.Fatalf("expected ErrNoSnapshot, got %v", err)
	}
}

func TestSuffixMarkerMismatch(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b")
	in.SnapshotAt = 2
	if _, err := a.RunCreatingSlot(in, &tr, -1, singleSlot); err != nil {
		t.Fatal(err)
	}
	bad := in.Clone()
	bad.SnapshotAt = 1
	if _, err := a.RunFromSnapshot(singleSlot, bad, &tr); err == nil {
		t.Fatal("expected marker mismatch error")
	}
}

func TestDropSnapshot(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a")
	in.SnapshotAt = 1
	if _, err := a.RunCreatingSlot(in, &tr, -1, singleSlot); err != nil {
		t.Fatal(err)
	}
	t0 := a.Now()
	a.DropSnapshot()
	if a.HasSlot(singleSlot) {
		t.Fatal("snapshot should be dropped")
	}
	if got := a.Now() - t0; got != a.M.Cost.HypercallEntry {
		t.Fatalf("release charged %v, want one hypercall entry %v", got, a.M.Cost.HypercallEntry)
	}
	if _, err := a.RunFromSnapshot(singleSlot, in, &tr); err != ErrNoSnapshot {
		t.Fatalf("expected ErrNoSnapshot after drop, got %v", err)
	}
	// Nothing held, nothing to release: a second drop is free.
	t0 = a.Now()
	a.DropSnapshot()
	if got := a.Now() - t0; got != 0 {
		t.Fatalf("drop without a snapshot charged %v", got)
	}
	// The machine keeps the reserved slot's buffers for the next take, and
	// the next marker run takes it again.
	if !a.M.HasSlot(singleSlot) {
		t.Fatal("release freed the reserved slot's buffers")
	}
	if res, err := a.RunCreatingSlot(in, &tr, -1, singleSlot); err != nil || !res.SnapshotTaken || !a.HasSlot(singleSlot) {
		t.Fatalf("retake after drop: res=%+v err=%v", res, err)
	}
}

// A root run takes no snapshot, whatever its input's marker says:
// RunCreatingSlot is the run that does.
func TestRunFromRootIgnoresMarker(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b")
	in.SnapshotAt = 2
	res, err := a.RunFromRoot(in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotTaken || a.HasSlot(singleSlot) || res.OpsExecuted != len(in.Ops) {
		t.Fatalf("marked root run: %+v, slot 0 held = %v", res, a.HasSlot(singleSlot))
	}
}

func TestSnapshotAfterLastOp(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a")
	in.SnapshotAt = 2 // after all ops
	res, err := a.RunCreatingSlot(in, &tr, -1, singleSlot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotTaken || a.SlotOps(singleSlot) != 2 {
		t.Fatalf("snapshot at end not taken: %+v", res)
	}
	// Suffix run executes zero new ops.
	res2, err := a.RunFromSnapshot(singleSlot, in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PacketsDelivered != 0 {
		t.Fatalf("suffix after full prefix delivered %d packets", res2.PacketsDelivered)
	}
}

func TestPacketToClosedConnIsNoop(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	con, _ := s.NodeByName("connect_tcp_21")
	pkt, _ := s.NodeByName("packet")
	cls, _ := s.NodeByName("close")
	in := spec.NewInput(
		spec.Op{Node: con},
		spec.Op{Node: cls, Args: []uint16{0}},
		spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte("USER x")},
	)
	res, err := a.RunFromRoot(in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("noop delivery should not crash")
	}
}

func TestSuffixRunsAreCheaperThanFullRuns(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	// Long prefix, short suffix.
	payloads := make([]string, 40)
	for i := range payloads {
		payloads[i] = "USER spam"
	}
	payloads = append(payloads, "STOR x")
	in := seq(s, payloads...)
	in.SnapshotAt = len(in.Ops) - 1

	resFull, err := a.RunCreatingSlot(in, &tr, -1, singleSlot)
	if err != nil {
		t.Fatal(err)
	}
	resSuffix, err := a.RunFromSnapshot(singleSlot, in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if resSuffix.VirtTime >= resFull.VirtTime {
		t.Fatalf("suffix run (%v) should be cheaper than full run (%v)",
			resSuffix.VirtTime, resFull.VirtTime)
	}
}

func TestPooledSlotsSurviveRootRunsAndShareState(t *testing.T) {
	a, s, tgt := setup(t)
	var tr coverage.Trace

	// Create slot 1 at the authed state (connect + USER + PASS).
	in := seq(s, "USER a", "PASS b", "STOR f")
	in.SnapshotAt = 3
	res, err := a.RunCreatingSlot(in, &tr, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotTaken || !a.HasSlot(1) {
		t.Fatal("slot 1 not created")
	}
	if a.SlotOps(1) != 3 {
		t.Fatalf("slot 1 ops = %d, want 3", a.SlotOps(1))
	}

	// Entry switches (root runs) must not discard pooled slots.
	if _, err := a.RunFromRoot(seq(s, "USER x"), &tr); err != nil {
		t.Fatal(err)
	}
	if !a.HasSlot(1) {
		t.Fatal("slot 1 lost across a root run")
	}

	// Resume the authed prefix for suffix mutations.
	for i := 0; i < 5; i++ {
		mut := in.Clone()
		mut.Ops[3].Data = []byte("STOR g")
		res, err := a.RunFromSnapshot(1, mut, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FromSnapshot || res.Crashed {
			t.Fatalf("iteration %d: %+v", i, res)
		}
		// The prefix's auth state must be live for STOR to land.
		if tgt.Stors != 1 {
			t.Fatalf("iteration %d: stors = %d (slot state wrong)", i, tgt.Stors)
		}
	}
}

func TestChainedSlotCreation(t *testing.T) {
	a, s, tgt := setup(t)
	var tr coverage.Trace

	// Slot 1: connect + USER.
	short := seq(s, "USER a", "PASS b")
	short.SnapshotAt = 2
	if _, err := a.RunCreatingSlot(short, &tr, -1, 1); err != nil {
		t.Fatal(err)
	}
	// Slot 2 extends slot 1 to the authed state without re-running the
	// prefix from root.
	long := seq(s, "USER a", "PASS b", "STOR f")
	long.SnapshotAt = 3
	res, err := a.RunCreatingSlot(long, &tr, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromSnapshot || !res.SnapshotTaken {
		t.Fatalf("chained creation: %+v", res)
	}
	if res.OpsExecuted != 4 {
		t.Fatalf("chained creation ops = %d, want 4 (2 cached + 2 run)", res.OpsExecuted)
	}
	// The chained slot resumes at the authed state.
	mut := long.Clone()
	mut.Ops[3].Data = []byte("STOR z")
	if _, err := a.RunFromSnapshot(2, mut, &tr); err != nil {
		t.Fatal(err)
	}
	if tgt.Stors != 1 {
		t.Fatalf("stors = %d after chained-slot resume", tgt.Stors)
	}
	// Both slots stay valid independently.
	if !a.HasSlot(1) || !a.HasSlot(2) {
		t.Fatal("slots lost after chained creation")
	}
}

func TestSlotMarkerMismatchAndDrop(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b", "STOR f")
	in.SnapshotAt = 3
	if _, err := a.RunCreatingSlot(in, &tr, -1, 1); err != nil {
		t.Fatal(err)
	}
	bad := in.Clone()
	bad.SnapshotAt = 2
	if _, err := a.RunFromSnapshot(1, bad, &tr); err == nil {
		t.Fatal("marker mismatch must error")
	}
	a.DropSlot(1)
	if a.HasSlot(1) {
		t.Fatal("slot should be gone")
	}
	if _, err := a.RunFromSnapshot(1, in, &tr); err != ErrNoSnapshot {
		t.Fatalf("expected ErrNoSnapshot, got %v", err)
	}
	// Creating from a dropped base slot errors too.
	if _, err := a.RunCreatingSlot(in, &tr, 1, 2); err != ErrNoSnapshot {
		t.Fatalf("expected ErrNoSnapshot for dropped base, got %v", err)
	}
}

// A slot can go under the agent three ways: the agent drops it, the machine
// drops it, or a new root drops every slot. Each way, a run from it and a
// run creating a slot on it fail with ErrNoSnapshot before the restore
// discards anything, the state a run left is still there, and a root run
// still works (the new root holds the one stor the last run made).
func TestDroppedSlotRunsDiscardNothing(t *testing.T) {
	for _, drop := range []struct {
		name      string
		drop      func(a *Agent)
		rootStors int
	}{
		{"Agent.DropSlot", func(a *Agent) { a.DropSlot(1) }, 0},
		{"Machine.DropSlot", func(a *Agent) { a.M.DropSlot(1) }, 0},
		{"Machine.TakeRoot", func(a *Agent) { a.M.TakeRoot() }, 1},
	} {
		t.Run(drop.name, func(t *testing.T) {
			a, s, tgt := setup(t)
			var tr coverage.Trace
			in := seq(s, "USER a", "PASS b", "STOR f")
			in.SnapshotAt = 3
			if _, err := a.RunCreatingSlot(in, &tr, -1, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := a.RunFromSnapshot(1, in, &tr); err != nil { // the machine caches slot 1
				t.Fatal(err)
			}
			discards := 0
			discard := a.M.GuestHooks.Discard
			a.M.GuestHooks.Discard = func() (int64, int) { discards++; return discard() }
			drop.drop(a)
			longer := seq(s, "USER a", "PASS b", "STOR f", "STOR g")
			longer.SnapshotAt = 4
			if _, err := a.RunFromSnapshot(1, in, &tr); err != ErrNoSnapshot {
				t.Fatalf("run from the dropped slot: %v, want ErrNoSnapshot", err)
			}
			if _, err := a.RunCreatingSlot(longer, &tr, 1, 2); err != ErrNoSnapshot {
				t.Fatalf("slot creation on the dropped slot: %v, want ErrNoSnapshot", err)
			}
			if discards != 0 || tgt.Stors != 1 {
				t.Fatalf("the failed runs discarded %d times and left %d stors, want none and the one the last run made", discards, tgt.Stors)
			}
			if _, err := a.RunFromRoot(seq(s, "USER x"), &tr); err != nil || discards != 1 || tgt.Stors != drop.rootStors {
				t.Fatalf("root run after the failed ones: %v, %d discards, %d stors, want one discard and %d stors", err, discards, tgt.Stors, drop.rootStors)
			}
		})
	}
}

func TestSlotResumeIsCheaperThanRootRun(t *testing.T) {
	a, s, _ := setup(t)
	var tr coverage.Trace
	in := seq(s, "USER a", "PASS b", "STOR one", "STOR two", "STOR three")
	in.SnapshotAt = 5 // after all but the last packet

	if _, err := a.RunCreatingSlot(in, &tr, -1, 1); err != nil {
		t.Fatal(err)
	}
	t0 := a.Now()
	if _, err := a.RunFromRoot(in.Clone(), &tr); err != nil {
		t.Fatal(err)
	}
	fullCost := a.Now() - t0
	t0 = a.Now()
	if _, err := a.RunFromSnapshot(1, in, &tr); err != nil {
		t.Fatal(err)
	}
	suffixCost := a.Now() - t0
	if suffixCost >= fullCost {
		t.Fatalf("slot resume (%v) should be cheaper than full run (%v)", suffixCost, fullCost)
	}
}

// TestRootRunSteadyStateAllocs pins the allocation budget of a whole root
// run — restore (which discards the last run's state), hydrate, connect,
// packet, close, the exit — once the agent and the kernel have been through
// one: the value environment, the kernel's objects and the response bytes are
// all reused.
func TestRootRunSteadyStateAllocs(t *testing.T) {
	a, s, _ := setup(t)
	in := seq(s, "USER a")
	cls, _ := s.NodeByName("close")
	in.Ops = append(in.Ops, spec.Op{Node: cls, Args: []uint16{0}})
	var tr coverage.Trace
	run := func() {
		if res, err := a.RunFromRoot(in, &tr); err != nil || res.OpsExecuted != 3 {
			t.Fatalf("root run: %+v, %v", res, err)
		}
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("a root run allocates %v objects in steady state, want 0", n)
	}
}

// TestSlotRunSteadyStateAllocs is the resumed twin of the root run above: a
// run resumed from a pooled slot — the slot restore, the value environment's
// working copy, the suffix's packets, close — allocates nothing once the
// agent has been through one.
func TestSlotRunSteadyStateAllocs(t *testing.T) {
	a, s, _ := setup(t)
	in := seq(s, "USER a", "PASS b", "USER c")
	cls, _ := s.NodeByName("close")
	in.Ops = append(in.Ops, spec.Op{Node: cls, Args: []uint16{0}})
	in.SnapshotAt = 2
	var tr coverage.Trace
	if res, err := a.RunCreatingSlot(in, &tr, -1, 1); err != nil || !res.SnapshotTaken {
		t.Fatalf("slot creation: %+v, %v", res, err)
	}
	run := func() {
		if res, err := a.RunFromSnapshot(1, in, &tr); err != nil || !res.FromSnapshot || res.OpsExecuted != len(in.Ops) {
			t.Fatalf("slot run: %+v, %v", res, err)
		}
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("a run resumed from a slot allocates %v objects in steady state, want 0", n)
	}
}
