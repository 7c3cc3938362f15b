package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/coverage"
	"repro/internal/spec"
)

func proftpdCrashInput(t *testing.T, s *spec.Spec) *spec.Input {
	t.Helper()
	con, _ := s.NodeByName("connect_tcp_21")
	pkt, _ := s.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con})
	msgs := []string{
		"USER a\r\n", "PASS b\r\n", "NOOP\r\n", "SYST\r\n", // NOOP/SYST are trimmable
		"SITE UTIME x\r\n", "SITE CHMOD x\r\n", "SITE CHGRP x\r\n", "SITE SYMLINK x\r\n",
		"MFMT 20260612 f\r\n",
	}
	for _, m := range msgs {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte(m)})
	}
	return in
}

func TestTrimShrinksInput(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 1)
	con, _ := inst.Spec.NodeByName("connect_tcp_2200")
	pkt, _ := inst.Spec.NodeByName("packet")
	// An input with redundant ops: the NOOPs add no new coverage beyond
	// the first.
	in := spec.NewInput(spec.Op{Node: con})
	for i := 0; i < 6; i++ {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte("NOOP\r\n")})
	}
	in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte("USER a\r\n")})

	trimmed, err := f.Trim(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Ops) >= len(in.Ops) {
		t.Fatalf("trim did not shrink: %d -> %d ops", len(in.Ops), len(trimmed.Ops))
	}
	if err := inst.Spec.Validate(trimmed); err != nil {
		t.Fatalf("trimmed input invalid: %v", err)
	}
}

// Trim must preserve the input's behaviour class exactly: the trimmed
// input still validates, is never longer than the original (ops and
// serialized bytes), and replays to the same coverage signature — which,
// since trim signatures now share coverage.BucketOf with the virgin map,
// means trimming can never change which bucket class an input belongs to.
func TestTrimInvariants(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 7)
	con, _ := inst.Spec.NodeByName("connect_tcp_2200")
	pkt, _ := inst.Spec.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con})
	for i := 0; i < 4; i++ {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte("NOOP\r\n")})
	}
	in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte("USER a\r\nPADDINGPADDING")})

	var ref coverage.Trace
	if _, err := inst.Agent.RunFromRoot(in, &ref); err != nil {
		t.Fatal(err)
	}
	want := traceSignature(&ref)

	trimmed, err := f.Trim(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Spec.Validate(trimmed); err != nil {
		t.Fatalf("trimmed input invalid: %v", err)
	}
	if len(trimmed.Ops) > len(in.Ops) {
		t.Fatalf("trim grew the input: %d -> %d ops", len(in.Ops), len(trimmed.Ops))
	}
	if lt, li := len(spec.Serialize(trimmed)), len(spec.Serialize(in)); lt > li {
		t.Fatalf("trim grew the serialization: %d -> %d bytes", li, lt)
	}
	var tr coverage.Trace
	if _, err := inst.Agent.RunFromRoot(trimmed, &tr); err != nil {
		t.Fatal(err)
	}
	if got := traceSignature(&tr); got != want {
		t.Fatalf("trim changed the coverage signature: %x -> %x", want, got)
	}
}

// MinimizeCrash must preserve the crash kind, keep the result valid, and
// never grow the input.
func TestMinimizeCrashInvariants(t *testing.T) {
	inst := launch(t, "proftpd")
	f := newFuzzer(t, inst, PolicyNone, 8)
	in := proftpdCrashInput(t, inst.Spec)

	res, err := inst.Agent.RunFromRoot(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("reference input does not crash")
	}
	kind := res.Crash.Kind

	minimized, err := f.MinimizeCrash(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Spec.Validate(minimized); err != nil {
		t.Fatalf("minimized input invalid: %v", err)
	}
	if len(minimized.Ops) > len(in.Ops) {
		t.Fatalf("minimization grew the input: %d -> %d ops", len(in.Ops), len(minimized.Ops))
	}
	if lm, li := len(spec.Serialize(minimized)), len(spec.Serialize(in)); lm > li {
		t.Fatalf("minimization grew the serialization: %d -> %d bytes", li, lm)
	}
	mres, err := inst.Agent.RunFromRoot(minimized, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mres.Crashed {
		t.Fatal("minimized input no longer crashes")
	}
	if mres.Crash.Kind != kind {
		t.Fatalf("minimization changed the crash kind: %v -> %v", kind, mres.Crash.Kind)
	}
}

func TestMinimizeCrashPreservesCrash(t *testing.T) {
	inst := launch(t, "proftpd")
	f := newFuzzer(t, inst, PolicyNone, 2)
	in := proftpdCrashInput(t, inst.Spec)

	minimized, err := f.MinimizeCrash(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimized.Ops) >= len(in.Ops) {
		t.Fatalf("minimization did not drop the filler ops: %d -> %d", len(in.Ops), len(minimized.Ops))
	}
	res, err := inst.Agent.RunFromRoot(minimized, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("minimized input no longer crashes")
	}
}

func TestMinimizeNonCrashFails(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 3)
	in := inst.Seeds()[0]
	if _, err := f.MinimizeCrash(in); err == nil {
		t.Fatal("minimizing a non-crashing input should error")
	}
}

// The queue EncodeQueue writes decodes back, in queue order and the same
// order on every decode, to inputs a fresh campaign can start from.
func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	inst := launch(t, "lightftp")
	f := newFuzzer(t, inst, PolicyNone, 4)
	if err := f.Step(); err != nil { // imports seeds into the queue
		t.Fatal(err)
	}
	if len(f.Queue) == 0 {
		t.Fatal("no queue entries to save")
	}
	tree := map[string][]byte{}
	f.EncodeQueue(tree, "")
	loaded, err := DecodeCorpus(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(f.Queue) {
		t.Fatalf("loaded %d inputs, want %d", len(loaded), len(f.Queue))
	}
	again, err := DecodeCorpus(tree)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range loaded {
		if err := inst.Spec.Validate(in); err != nil {
			t.Fatalf("loaded input %d invalid: %v", i, err)
		}
		if !bytes.Equal(spec.Serialize(in), f.Queue[i].Bytes()) || !bytes.Equal(spec.Serialize(again[i]), f.Queue[i].Bytes()) {
			t.Fatalf("loaded input %d is not queue entry %d", i, i)
		}
	}
	// A fresh campaign can resume from the corpus.
	inst2 := launch(t, "lightftp")
	f2 := New(inst2.Agent, inst2.Spec, Options{
		Policy: PolicyNone,
		Seeds:  loaded,
		Rand:   rand.New(rand.NewSource(5)),
	})
	if err := f2.Step(); err != nil {
		t.Fatal(err)
	}
	if f2.Coverage() == 0 {
		t.Fatal("resumed campaign found no coverage")
	}
}

func TestLoadCorpusEmptyDir(t *testing.T) {
	loaded, err := DecodeCorpus(map[string][]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 0 {
		t.Fatal("an empty tree should decode to nothing")
	}
}
