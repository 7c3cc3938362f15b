package baseline

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/targets"
)

func launch(t *testing.T, name string) *targets.Instance {
	t.Helper()
	inst, err := targets.Launch(name, targets.LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		AFLnet: "aflnet", AFLnetNoState: "aflnet-no-state",
		AFLnwe: "aflnwe", AFLppDesock: "aflpp",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDesockIncompatibility(t *testing.T) {
	inst := launch(t, "proftpd") // DesockCompat = false
	if _, err := NewExecutor(AFLppDesock, inst); err == nil {
		t.Fatal("proftpd should be incompatible with desock")
	}
	inst2 := launch(t, "lightftp")
	if _, err := NewExecutor(AFLppDesock, inst2); err != nil {
		t.Fatalf("lightftp should work with desock: %v", err)
	}
}

func TestBaselineRunsSeeds(t *testing.T) {
	for _, kind := range []Kind{AFLnet, AFLnetNoState, AFLnwe, AFLppDesock} {
		inst := launch(t, "lightftp")
		e, err := NewExecutor(kind, inst)
		if err != nil {
			t.Fatal(err)
		}
		var tr coverage.Trace
		for _, seed := range inst.Seeds() {
			res, err := e.RunFromRoot(seed, &tr)
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if res.Crashed {
				t.Fatalf("%v: seed crashed: %v", kind, res.Crash)
			}
			if tr.CountEdges() == 0 {
				t.Fatalf("%v: no coverage", kind)
			}
		}
	}
}

func TestBaselinesAreSlowerThanNyxNet(t *testing.T) {
	// Table 3's headline: Nyx-Net throughput is orders of magnitude
	// higher. Run identical seeds through both executors and compare
	// charged virtual time.
	instA := launch(t, "lightftp")
	ea, err := NewExecutor(AFLnet, instA)
	if err != nil {
		t.Fatal(err)
	}
	var tr coverage.Trace
	seed := instA.Seeds()[0]
	resA, err := ea.RunFromRoot(seed, &tr)
	if err != nil {
		t.Fatal(err)
	}

	instN := launch(t, "lightftp")
	resN, err := instN.Agent.RunFromRoot(instN.Seeds()[0], &tr)
	if err != nil {
		t.Fatal(err)
	}
	if resA.VirtTime < 50*resN.VirtTime {
		t.Fatalf("AFLnet exec (%v) should be >> Nyx-Net exec (%v)", resA.VirtTime, resN.VirtTime)
	}
}

func TestAFLnweDestroysPacketBoundaries(t *testing.T) {
	// The same multi-packet session must yield less coverage under
	// AFLnwe because the FTP parser sees one concatenated blob.
	covFor := func(kind Kind) int {
		inst := launch(t, "lightftp")
		var e core.Executor
		if kind == AFLnwe {
			ex, err := NewExecutor(AFLnwe, inst)
			if err != nil {
				t.Fatal(err)
			}
			e = ex
		} else {
			e = inst.Agent
		}
		var tr coverage.Trace
		var virgin coverage.Virgin
		for _, seed := range inst.Seeds() {
			if _, err := e.RunFromRoot(seed, &tr); err != nil {
				t.Fatal(err)
			}
			virgin.Merge(&tr)
		}
		return virgin.Edges()
	}
	nwe, nyx := covFor(AFLnwe), covFor(AFLppDesock+100) // anything non-AFLnwe uses the agent
	if nwe >= nyx {
		t.Fatalf("AFLnwe coverage (%d) should be below boundary-preserving delivery (%d)", nwe, nyx)
	}
}

func TestPersistentProcessAccumulatesCorruption(t *testing.T) {
	// dcmtk without ASan: a long-lived AFLnet-style process eventually
	// faults from accumulated corruption, while each individual input is
	// harmless (Table 1 footnote).
	inst := launch(t, "dcmtk")
	e, err := NewExecutor(AFLnetNoState, inst)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte{0x04, 0, 0, 0, 0x40, 0, 0, 0, 0, 2, 1, 0x02}
	con, _ := inst.Spec.NodeByName("connect_tcp_104")
	pkt, _ := inst.Spec.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con},
		spec.Op{Node: pkt, Args: []uint16{0}, Data: bad},
		spec.Op{Node: pkt, Args: []uint16{0}, Data: bad})

	var tr coverage.Trace
	crashed := false
	for i := 0; i < 20 && !crashed; i++ {
		res, err := e.RunFromRoot(in, &tr)
		if err != nil {
			t.Fatal(err)
		}
		crashed = res.Crashed
		if crashed && res.Crash.Kind != guest.CrashHeapCorruption {
			t.Fatalf("wrong crash kind: %v", res.Crash)
		}
	}
	if !crashed {
		t.Fatal("persistent process should accumulate corruption and fault")
	}
}

func TestRestartResetsAccumulatedState(t *testing.T) {
	inst := launch(t, "dcmtk")
	e, err := NewExecutor(AFLppDesock, inst)
	if err == nil {
		t.Fatal("dcmtk is desock-incompatible; use aflnet with restartEvery=1 instead")
	}
	// Simulate per-exec restarts with AFLnet by forcing the interval.
	e, err = NewExecutor(AFLnet, inst)
	if err != nil {
		t.Fatal(err)
	}
	e.restartEvery = 1
	bad := []byte{0x04, 0, 0, 0, 0x40, 0, 0, 0, 0, 2, 1, 0x02}
	con, _ := inst.Spec.NodeByName("connect_tcp_104")
	pkt, _ := inst.Spec.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con}, spec.Op{Node: pkt, Args: []uint16{0}, Data: bad})
	var tr coverage.Trace
	for i := 0; i < 30; i++ {
		res, err := e.RunFromRoot(in, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashed {
			t.Fatal("per-exec restarts should never accumulate corruption")
		}
	}
}

func TestBaselineWithCoreFuzzer(t *testing.T) {
	// Baselines plug into the same campaign loop as Nyx-Net.
	inst := launch(t, "lightftp")
	e, err := NewExecutor(AFLnet, inst)
	if err != nil {
		t.Fatal(err)
	}
	f := core.New(e, inst.Spec, core.Options{
		Policy: core.PolicyNone,
		Seeds:  inst.Seeds(),
		Rand:   rand.New(rand.NewSource(1)),
		Dict:   inst.Info.Dict,
	})
	if err := f.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Coverage() == 0 || f.Execs() == 0 {
		t.Fatal("baseline campaign made no progress")
	}
	// Single-digit executions per second, like the paper observes.
	if eps := f.ExecsPerSecond(); eps > 60 {
		t.Fatalf("AFLnet at %v execs/s is unrealistically fast", eps)
	}
}

// ---- Agamotto ----

func TestAgamottoCheckpointRestore(t *testing.T) {
	a := NewAgamotto(64)
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, mem.PageSize) }

	a.WritePage(0, page(1))
	a.Checkpoint() // snapshot 0
	a.WritePage(0, page(2))
	a.WritePage(1, page(3))
	if err := a.Restore(); err != nil {
		t.Fatal(err)
	}
	if a.ReadPage(0)[0] != 1 {
		t.Fatalf("page 0 = %d, want 1", a.ReadPage(0)[0])
	}
	if a.ReadPage(1) != nil && a.ReadPage(1)[0] != 0 {
		t.Fatal("page 1 should be zero")
	}
}

// TestAgamottoTree checks that a restore finds each page in the snapshot
// that stored it, up the chain of parents.
func TestAgamottoTree(t *testing.T) {
	a := NewAgamotto(16)
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, mem.PageSize) }
	a.WritePage(0, page(1))
	a.Checkpoint() // stores page 0
	a.WritePage(1, page(2))
	a.Checkpoint() // child: stores page 1
	a.WritePage(2, page(3))
	a.Checkpoint() // grandchild: stores page 2
	for pn := uint32(0); pn < 4; pn++ {
		a.WritePage(pn, page(9))
	}
	if err := a.Restore(); err != nil {
		t.Fatal(err)
	}
	for pn, want := range []byte{1, 2, 3, 0} {
		if got := a.ReadPage(uint32(pn))[0]; got != want {
			t.Fatalf("page %d = %d, want %d", pn, got, want)
		}
	}
}

func TestAgamottoRestoreWithoutCheckpoint(t *testing.T) {
	a := NewAgamotto(4)
	if err := a.Restore(); err != ErrNoCheckpoint {
		t.Fatalf("expected ErrNoCheckpoint, got %v", err)
	}
}
