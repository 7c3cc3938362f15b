package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/guest"
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

func newFuzzer(t *testing.T, inst *targets.Instance, policy Policy, seed int64) *Fuzzer {
	t.Helper()
	return New(inst.Agent, inst.Spec, Options{
		Policy: policy,
		Seeds:  inst.Seeds(),
		Rand:   rand.New(rand.NewSource(seed)),
		Dict:   inst.Info.Dict,
	})
}

func TestFuzzerFindsCoverageFromSeeds(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 1)
	if err := f.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Coverage() == 0 {
		t.Fatal("no coverage found")
	}
	if len(f.Queue) == 0 {
		t.Fatal("queue empty: seeds should yield entries")
	}
	if f.Execs() == 0 {
		t.Fatal("no executions")
	}
	if f.ExecsPerSecond() <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestFuzzerSeedlessBootstrap(t *testing.T) {
	inst := launch(t, "lightftp")
	f := New(inst.Agent, inst.Spec, Options{
		Policy: PolicyNone,
		Rand:   rand.New(rand.NewSource(2)),
	})
	if err := f.RunFor(1 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Coverage() == 0 {
		t.Fatal("seedless campaign should still find some coverage")
	}
}

func TestFuzzerRejectsInvalidSeed(t *testing.T) {
	inst := launch(t, "lightftp")
	bad := spec.NewInput(spec.Op{Node: 99})
	f := New(inst.Agent, inst.Spec, Options{
		Policy: PolicyNone,
		Seeds:  []*spec.Input{bad},
		Rand:   rand.New(rand.NewSource(3)),
	})
	if err := f.Step(); err == nil {
		t.Fatal("invalid seed should error")
	}
}

func TestPoliciesUseSnapshots(t *testing.T) {
	for _, policy := range []Policy{PolicyBalanced, PolicyAggressive} {
		inst := launch(t, "lightftp")
		f := newFuzzer(t, inst, policy, 4)
		if err := f.RunFor(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		if f.SnapshotExecs() == 0 {
			t.Fatalf("%v: no executions used incremental snapshots", policy)
		}
		if f.SnapshotExecs() >= f.Execs() {
			t.Fatalf("%v: snapshot execs (%d) must be < total (%d)", policy, f.SnapshotExecs(), f.Execs())
		}
	}
}

func TestPolicyNoneNeverSnapshots(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 5)
	if err := f.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.SnapshotExecs() != 0 {
		t.Fatalf("none policy used %d snapshot execs", f.SnapshotExecs())
	}
}

func TestAggressiveFasterThanNone(t *testing.T) {
	// The central performance claim (Table 3): with incremental
	// snapshots the same virtual time buys more executions.
	execsFor := func(policy Policy) uint64 {
		inst := launch(t, "proftpd") // slow target: snapshots matter
		f := newFuzzer(t, inst, policy, 6)
		if err := f.RunFor(4 * time.Second); err != nil {
			t.Fatal(err)
		}
		return f.Execs()
	}
	none := execsFor(PolicyNone)
	aggr := execsFor(PolicyAggressive)
	if aggr <= none {
		t.Fatalf("aggressive (%d execs) should beat none (%d execs)", aggr, none)
	}
}

func TestDeterministicCampaigns(t *testing.T) {
	run := func() (uint64, int) {
		inst := launch(t, "lightftp")
		f := newFuzzer(t, inst, PolicyBalanced, 42)
		if err := f.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return f.Execs(), f.Coverage()
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("campaigns not deterministic: (%d,%d) vs (%d,%d)", e1, c1, e2, c2)
	}
}

func TestCoverageLogMonotone(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyBalanced, 7)
	if err := f.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	log := f.CoverageLog()
	if len(log) < 2 {
		t.Fatal("coverage log too short")
	}
	for i := 1; i < len(log); i++ {
		if log[i].Edges < log[i-1].Edges || log[i].T < log[i-1].T {
			t.Fatalf("coverage log not monotone at %d: %+v -> %+v", i, log[i-1], log[i])
		}
	}
}

func TestCrashDedup(t *testing.T) {
	// proftpd has a deterministic crash behind a staircase; drive it
	// directly by seeding the full crashing session.
	inst := launch(t, "proftpd")
	crashSeq := []string{
		"USER a\r\n", "PASS b\r\n",
		"SITE UTIME x\r\n", "SITE CHMOD x\r\n", "SITE CHGRP x\r\n", "SITE SYMLINK x\r\n",
		"MFMT 20260612 f\r\n",
	}
	con, _ := inst.Spec.NodeByName("connect_tcp_21")
	pkt, _ := inst.Spec.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con})
	for _, msg := range crashSeq {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte(msg)})
	}

	f := New(inst.Agent, inst.Spec, Options{
		Policy: PolicyNone,
		Seeds:  []*spec.Input{in, in.Clone(), in.Clone()},
		Rand:   rand.New(rand.NewSource(9)),
	})
	if err := f.Step(); err != nil { // seed import runs all three
		t.Fatal(err)
	}
	if len(f.Crashes) != 1 {
		t.Fatalf("crashes = %d, want 1 (deduplicated)", len(f.Crashes))
	}
	if f.Crashes[0].Kind != guest.CrashSegfault {
		t.Fatalf("kind = %v", f.Crashes[0].Kind)
	}
	// The recorded input must reproduce the crash from a clean state.
	res, err := inst.Agent.RunFromRoot(f.Crashes[0].Input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("recorded crash input does not reproduce")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyNone.String() != "nyxnet-none" ||
		PolicyBalanced.String() != "nyxnet-balanced" ||
		PolicyAggressive.String() != "nyxnet-aggressive" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

// TestStepSteadyStateAllocs bounds what a warmed-up campaign allocates per
// execution, on the two shapes of the repo benchmark's solo workloads:
// ftp-snap (bftpd, aggressive policy, a 4 MiB snapshot pool) and dtls-root
// (tinydtls, policy none). Packets are parsed where they lie, children are
// built in the mutator's arena, and rounds reuse their scratch, so what is
// left is what a campaign keeps: queued entries and their trims, pooled
// snapshots, crash reports. Warmed up until the queue grows by about one
// entry per thousand executions, both runs measure 0.08 allocations per
// execution, where verbs parsed into strings and children built on the heap
// made it 4.5 and 2.2.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		workload, target string
		policy           Policy
		budget           int64
		warm             time.Duration
	}{
		{"ftp-snap", "bftpd", PolicyAggressive, 4 << 20, 100 * time.Second},
		{"dtls-root", "tinydtls", PolicyNone, 0, 400 * time.Second},
	} {
		t.Run(c.workload, func(t *testing.T) {
			inst := launch(t, c.target)
			f := New(inst.Agent, inst.Spec, Options{
				Policy:     c.policy,
				Seeds:      inst.Seeds(),
				Rand:       rand.New(rand.NewSource(1)),
				Dict:       inst.Info.Dict,
				SnapBudget: c.budget,
			})
			if err := f.RunFor(c.warm); err != nil {
				t.Fatal(err)
			}
			var execs uint64
			allocs := testing.AllocsPerRun(1, func() {
				start := f.Execs()
				for f.Execs()-start < 50000 {
					if err := f.Step(); err != nil {
						t.Fatal(err)
					}
				}
				execs = f.Execs() - start
			})
			if perExec := allocs / float64(execs); perExec > 0.1 {
				t.Errorf("%.0f allocations in %d executions: %.3f per execution, want at most 0.1", allocs, execs, perExec)
			}
		})
	}
}
