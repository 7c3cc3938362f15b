package spec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/guest"
)

func testSpec() *Spec {
	return RawPacketSpec("test", []guest.Port{{Proto: guest.TCP, Num: 21}, {Proto: guest.UDP, Num: 53}})
}

func validInput(t *testing.T, s *Spec) *Input {
	t.Helper()
	con, ok := s.NodeByName("connect_tcp_21")
	if !ok {
		t.Fatal("no connect node")
	}
	pkt, _ := s.NodeByName("packet")
	cls, _ := s.NodeByName("close")
	in := NewInput(
		Op{Node: con},
		Op{Node: pkt, Args: []uint16{0}, Data: []byte("USER anon\r\n")},
		Op{Node: pkt, Args: []uint16{0}, Data: []byte("PASS x\r\n")},
		Op{Node: cls, Args: []uint16{0}},
	)
	if err := s.Validate(in); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
	return in
}

func TestRawPacketSpecShape(t *testing.T) {
	s := testSpec()
	if len(s.Nodes) != 4 { // 2 connects + packet + close
		t.Fatalf("nodes = %d, want 4", len(s.Nodes))
	}
	if len(s.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(s.Edges))
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	s := testSpec()
	pkt, _ := s.NodeByName("packet")
	con, _ := s.NodeByName("connect_tcp_21")
	cases := []struct {
		name string
		in   *Input
	}{
		{"unknown node", NewInput(Op{Node: 99})},
		{"forward reference", NewInput(Op{Node: pkt, Args: []uint16{0}, Data: []byte("x")})},
		{"bad arity", NewInput(Op{Node: con}, Op{Node: pkt, Data: []byte("x")})},
		{"data on dataless", NewInput(Op{Node: con, Data: []byte("x")})},
	}
	for _, tc := range cases {
		if err := s.Validate(tc.in); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	// Oversized payload.
	big := NewInput(Op{Node: con}, Op{Node: pkt, Args: []uint16{0}, Data: make([]byte, 1<<17)})
	if err := s.Validate(big); err == nil {
		t.Error("oversized payload should be rejected")
	}
	// Snapshot marker out of range.
	in := validInput(t, s)
	in.SnapshotAt = 100
	if err := s.Validate(in); err == nil {
		t.Error("out-of-range snapshot marker should be rejected")
	}
}

func TestPacketsCount(t *testing.T) {
	s := testSpec()
	in := validInput(t, s)
	if got := in.Packets(s); got != 2 {
		t.Fatalf("Packets = %d, want 2", got)
	}
}

func TestBytecodeRoundTrip(t *testing.T) {
	s := testSpec()
	in := validInput(t, s)
	in.SnapshotAt = 2
	b := Serialize(in)
	got, err := Deserialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SnapshotAt != 2 || len(got.Ops) != len(in.Ops) {
		t.Fatalf("round trip mismatch: snap=%d nops=%d", got.SnapshotAt, len(got.Ops))
	}
	for i := range in.Ops {
		if got.Ops[i].Node != in.Ops[i].Node || !bytes.Equal(got.Ops[i].Data, in.Ops[i].Data) {
			t.Fatalf("op %d mismatch", i)
		}
	}
	if err := s.Validate(got); err != nil {
		t.Fatal(err)
	}
}

func TestBytecodeSnapshotAtEnd(t *testing.T) {
	s := testSpec()
	in := validInput(t, s)
	in.SnapshotAt = len(in.Ops)
	got, err := Deserialize(Serialize(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.SnapshotAt != len(in.Ops) {
		t.Fatalf("snapshot at end lost: %d", got.SnapshotAt)
	}
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("shrt"),
		[]byte("XXXXXXXXXXXXXX"),
		append([]byte("NYXB"), 9, 0, 1, 0, 0, 0, 0, 0, 0),    // bad version
		append([]byte("NYXB"), 1, 0, 0xff, 0xff, 0xff, 0xff), // four billion ops in no bytes
	}
	for i, b := range cases {
		if _, err := Deserialize(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Truncations of a valid stream must all fail or produce valid inputs,
	// never panic.
	s := testSpec()
	full := Serialize(validInput(t, s))
	for n := 0; n < len(full); n++ {
		Deserialize(full[:n]) //nolint:errcheck // just must not panic
	}
}

// Property: serialize∘deserialize is the identity on valid inputs.
func TestBytecodeRoundTripProperty(t *testing.T) {
	s := testSpec()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMutator(s, rng)
		in := m.Generate(0)
		if rng.Intn(2) == 0 && len(in.Ops) > 0 {
			in.SnapshotAt = rng.Intn(len(in.Ops) + 1)
		}
		got, err := Deserialize(Serialize(in))
		if err != nil {
			return false
		}
		if got.SnapshotAt != in.SnapshotAt || len(got.Ops) != len(in.Ops) {
			return false
		}
		for i := range in.Ops {
			if got.Ops[i].Node != in.Ops[i].Node ||
				!bytes.Equal(got.Ops[i].Data, in.Ops[i].Data) ||
				len(got.Ops[i].Args) != len(in.Ops[i].Args) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: generated inputs always validate.
func TestGenerateProducesValidInputs(t *testing.T) {
	s := testSpec()
	f := func(seed int64) bool {
		m := NewMutator(s, rand.New(rand.NewSource(seed)))
		return s.Validate(m.Generate(0)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mutation preserves validity (the paper's mutators are
// spec-aware by construction).
func TestMutatePreservesValidity(t *testing.T) {
	s := testSpec()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMutator(s, rng)
		in := m.Generate(0)
		for i := 0; i < 10; i++ {
			in = m.Mutate(in)
			if s.Validate(in) != nil {
				return false
			}
			if len(in.Ops) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: splicing two valid inputs yields a valid input.
func TestSplicePreservesValidity(t *testing.T) {
	s := testSpec()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMutator(s, rng)
		a, b := m.Generate(0), m.Generate(0)
		sp := m.Splice(a, b)
		return s.Validate(sp) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateChangesSomething(t *testing.T) {
	s := testSpec()
	rng := rand.New(rand.NewSource(7))
	m := NewMutator(s, rng)
	in := validInput(t, s)
	orig := Serialize(in)
	changed := false
	for i := 0; i < 50 && !changed; i++ {
		if !bytes.Equal(Serialize(m.Mutate(in)), orig) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("50 mutations never changed the input")
	}
}

// Property: EncodedLen is len(Serialize(in)) on generated inputs, mutated
// ones, and every marker position including the ones Serialize ignores.
func TestEncodedLenMatchesSerialize(t *testing.T) {
	s := testSpec()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMutator(s, rng)
		in := m.Generate(0)
		for i := 0; i < 4; i++ {
			in.SnapshotAt = rng.Intn(len(in.Ops)+3) - 1
			if EncodedLen(in) != len(Serialize(in)) {
				return false
			}
			in = m.Mutate(in)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
