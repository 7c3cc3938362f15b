// Package spec implements Nyx's affine-typed bytecode input model as used
// by Nyx-Net (§2.2, §3.5, §4.3 of the paper): a specification declares
// typed opcodes ("nodes") that produce and borrow typed values ("edges");
// inputs are sequences of opcodes serialized to a flat bytecode; the fuzzer
// mutates inputs structurally while keeping them valid by construction.
//
// The package also defines the special snapshot opcode the fuzzer injects
// to request an incremental snapshot at an arbitrary position in the input
// stream (§4.3).
//
// # Inputs share what they did not change
//
// The backing arrays of Op.Args and Op.Data are never written after the op
// is constructed, anywhere in the repository
// (TestMutationNeverWritesThroughSharedOps checks it): a change builds a new
// slice and assigns it to an op of an Input the writer owns. So any number of
// inputs and goroutines may hold one op. Mutate, MutateSuffix and Splice never write their arguments; their
// result belongs to the Mutator until its next call of the same kind.
//
// One kind of array is rewritten, and only by its mutator: MutateSuffix
// builds its child's new payloads and argument lists in an arena it owns,
// and rewrites them at its next call, after the child that referenced them
// is dead. An input holding arena arrays says so, and Input.Clone — the
// one way to keep a child — copies exactly those out and shares every other
// array: O(ops) plus what the mutation built. A call given such an input
// clones it first.
package spec

import (
	"errors"
	"fmt"

	"repro/internal/guest"
)

// EdgeID identifies a value type (e.g. "connection handle").
type EdgeID uint16

// NodeID identifies an opcode within a Spec.
type NodeID uint16

// SnapshotNode is the reserved opcode ID of the snapshot marker.
const SnapshotNode NodeID = 0xFFFF

// NodeKind tells the emulation layer how to interpret an opcode.
type NodeKind uint8

// Opcode kinds understood by the network emulation layer. Custom kinds are
// dispatched to registered handlers (used by the Super Mario target, whose
// opcodes are controller inputs rather than packets).
const (
	KindConnect NodeKind = iota
	KindPacket
	KindClose
	KindCustom
)

// EdgeType declares a value type.
type EdgeType struct {
	Name string
}

// NodeType declares an opcode: what it borrows, what it outputs, and
// whether it carries a data payload.
type NodeType struct {
	Name    string
	Kind    NodeKind
	Borrows []EdgeID
	Outputs []EdgeID
	HasData bool
	MaxData int
	// Port is the attack-surface port for KindConnect nodes.
	Port guest.Port
}

// Spec is a full input-format specification.
type Spec struct {
	Name  string
	Edges []EdgeType
	Nodes []NodeType
}

// NewSpec creates an empty specification.
func NewSpec(name string) *Spec { return &Spec{Name: name} }

// Edge declares a value type and returns its ID.
func (s *Spec) Edge(name string) EdgeID {
	s.Edges = append(s.Edges, EdgeType{Name: name})
	return EdgeID(len(s.Edges) - 1)
}

// Node declares an opcode and returns its ID.
func (s *Spec) Node(nt NodeType) NodeID {
	s.Nodes = append(s.Nodes, nt)
	return NodeID(len(s.Nodes) - 1)
}

// NodeByName finds a node ID by name.
func (s *Spec) NodeByName(name string) (NodeID, bool) {
	for i, n := range s.Nodes {
		if n.Name == name {
			return NodeID(i), true
		}
	}
	return 0, false
}

// RawPacketSpec builds the "generic default specification that assumes raw
// packets" the paper's MySQL case study uses (§5.4): one connect opcode per
// attack-surface port and one raw packet opcode borrowing the connection.
func RawPacketSpec(name string, ports []guest.Port) *Spec {
	s := NewSpec(name)
	eCon := s.Edge("con")
	for _, p := range ports {
		s.Node(NodeType{
			Name:    fmt.Sprintf("connect_%s_%d", p.Proto, p.Num),
			Kind:    KindConnect,
			Outputs: []EdgeID{eCon},
			Port:    p,
		})
	}
	s.Node(NodeType{
		Name:    "packet",
		Kind:    KindPacket,
		Borrows: []EdgeID{eCon},
		HasData: true,
		MaxData: 1 << 16,
	})
	s.Node(NodeType{
		Name:    "close",
		Kind:    KindClose,
		Borrows: []EdgeID{eCon},
	})
	return s
}

// Op is one opcode invocation in an input: the node, the value references
// it borrows (indices into the sequence of previously produced values), and
// its payload.
type Op struct {
	Node NodeID
	Args []uint16
	Data []byte
}

// Input is a runnable test case: a sequence of ops plus the position of the
// snapshot marker (-1 = none). SnapshotAt == i means the incremental
// snapshot is taken after executing ops[0:i], i.e. before op i.
type Input struct {
	Ops        []Op
	SnapshotAt int

	// arena, when not nil, is the mutator arena some of the Args and Data
	// arrays may lie in: the input is a Mutator's child (see Clone).
	arena *arena
}

// NewInput creates an input with no snapshot marker.
func NewInput(ops ...Op) *Input { return &Input{Ops: ops, SnapshotAt: -1} }

// Clone copies the op headers, and shares every Args and Data array with in
// except those in a mutator's arena, which it copies (see the package
// comment): the clone's Ops and marker are the caller's, and it outlives
// every later call on the mutator.
func (in *Input) Clone() *Input {
	out := &Input{Ops: make([]Op, len(in.Ops)), SnapshotAt: in.SnapshotAt}
	copy(out.Ops, in.Ops)
	in.arena.copyOut(out.Ops)
	return out
}

// Packets counts the ops that deliver data (the paper's notion of input
// length in packets, used by the snapshot placement policies).
func (in *Input) Packets(s *Spec) int {
	n := 0
	for _, op := range in.Ops {
		if int(op.Node) < len(s.Nodes) && s.Nodes[op.Node].HasData {
			n++
		}
	}
	return n
}

// Validation errors.
var (
	ErrUnknownNode = errors.New("spec: unknown node")
	ErrBadArg      = errors.New("spec: argument references unavailable value")
	ErrArity       = errors.New("spec: wrong number of arguments")
	ErrDataSize    = errors.New("spec: payload exceeds MaxData")
	ErrNoData      = errors.New("spec: payload on dataless node")
)

// Validate checks that the input is well-typed against s: every borrow
// references a value output by an earlier op with the matching edge type.
func (s *Spec) Validate(in *Input) error {
	var scratch [64]EdgeID
	values := scratch[:0] // value i has type values[i]
	for i, op := range in.Ops {
		if int(op.Node) >= len(s.Nodes) {
			return fmt.Errorf("%w: op %d node %d", ErrUnknownNode, i, op.Node)
		}
		nt := s.Nodes[op.Node]
		if len(op.Args) != len(nt.Borrows) {
			return fmt.Errorf("%w: op %d (%s) has %d args, wants %d",
				ErrArity, i, nt.Name, len(op.Args), len(nt.Borrows))
		}
		for j, a := range op.Args {
			if int(a) >= len(values) {
				return fmt.Errorf("%w: op %d (%s) arg %d = v%d (only %d values)",
					ErrBadArg, i, nt.Name, j, a, len(values))
			}
			if values[a] != nt.Borrows[j] {
				return fmt.Errorf("%w: op %d (%s) arg %d has type %d, wants %d",
					ErrBadArg, i, nt.Name, j, values[a], nt.Borrows[j])
			}
		}
		if !nt.HasData && len(op.Data) > 0 {
			return fmt.Errorf("%w: op %d (%s)", ErrNoData, i, nt.Name)
		}
		if nt.HasData && nt.MaxData > 0 && len(op.Data) > nt.MaxData {
			return fmt.Errorf("%w: op %d (%s) has %d bytes", ErrDataSize, i, nt.Name, len(op.Data))
		}
		values = append(values, nt.Outputs...)
	}
	if in.SnapshotAt < -1 || in.SnapshotAt > len(in.Ops) {
		return fmt.Errorf("spec: snapshot marker %d out of range", in.SnapshotAt)
	}
	return nil
}
