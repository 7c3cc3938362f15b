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

// Inputs decoded one after another share the caller's slabs, each cut to
// its own length: appending to one input's ops or args never writes the
// next input's, a slab that runs short is replaced by one of its own
// capacity, and every input decodes as Deserialize decodes it.
func TestDeserializeAppendCutsInputsFromSlabs(t *testing.T) {
	s := testSpec()
	in := validInput(t, s)
	in.SnapshotAt = 1
	b := Serialize(in)
	want, err := Deserialize(b)
	if err != nil {
		t.Fatal(err)
	}
	n := len(want.Ops)
	first := make([]Op, 0, 2*n)
	ops, args := first, make([]uint16, 0, 8)
	var got [3]Input
	for i := range got {
		if ops, args, err = DeserializeAppend(&got[i], b, ops, args); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Serialize(&got[i]), b) || got[i].SnapshotAt != want.SnapshotAt {
			t.Fatalf("input %d decodes to %v, want %v", i, got[i], *want)
		}
		if cap(got[i].Ops) != len(got[i].Ops) {
			t.Fatalf("input %d: %d ops with capacity %d", i, len(got[i].Ops), cap(got[i].Ops))
		}
	}
	if &got[0].Ops[0] != &first[:1][0] || &got[1].Ops[0] != &first[:n+1][n] {
		t.Fatal("the first two inputs do not lie one after the other in the caller's slab")
	}
	if cap(ops) != 2*n || &got[2].Ops[0] != &ops[:1][0] {
		t.Fatalf("the third input took a slab of capacity %d, want a new one of the first one's %d", cap(ops), 2*n)
	}
	before := Serialize(&got[1])
	got[0].Ops = append(got[0].Ops, Op{Node: 7, Args: []uint16{9}})
	got[0].Ops[1].Args = append(got[0].Ops[1].Args, 9)
	if !bytes.Equal(Serialize(&got[1]), before) {
		t.Fatal("appending to one input's arrays wrote the next input's")
	}
	var bad Input
	if ops2, args2, err := DeserializeAppend(&bad, b[:len(b)-1], ops, args); err == nil || len(ops2) != len(ops) || len(args2) != len(args) {
		t.Fatalf("a truncated stream gave %v and moved the slabs to %d ops, %d args", err, len(ops2), len(args2))
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
