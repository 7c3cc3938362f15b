package spec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Bytecode format:
//
//	magic "NYXB" | u16 version | u32 nops
//	per op: u16 node | u8 nargs | u16 args... | u32 datalen | data...
//	snapshot marker: u16 0xFFFF (no args, no data)
//
// The snapshot marker is a real opcode in the serialized form (§4.3: "we
// introduce a special snapshot opcode that the fuzzer injects at arbitrary
// positions in the input stream"); in-memory it is normalized into
// Input.SnapshotAt.

var bcMagic = [4]byte{'N', 'Y', 'X', 'B'}

const bcVersion = 1

// ErrBadBytecode is wrapped by all deserialization failures.
var ErrBadBytecode = errors.New("spec: malformed bytecode")

// AppendOp appends op's bytecode encoding to dst and returns the extended
// slice. It is the single definition of the per-op wire format, shared by
// Serialize and the snapshot pool's prefix digests (snappool) — any change
// to the encoded fields automatically reaches both, so a digest can never
// silently drift from the serialized form.
func AppendOp(dst []byte, op Op) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(op.Node))
	dst = append(dst, byte(len(op.Args)))
	for _, a := range op.Args {
		dst = binary.LittleEndian.AppendUint16(dst, a)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(op.Data)))
	return append(dst, op.Data...)
}

// Magic, version and op count; an op's node, nargs and datalen.
const (
	bcHeaderLen  = 4 + 2 + 4
	bcOpOverhead = 2 + 1 + 4
)

// EncodedLen returns len(Serialize(in)) without encoding anything.
func EncodedLen(in *Input) int {
	n := bcHeaderLen
	if in.SnapshotAt >= 0 && in.SnapshotAt <= len(in.Ops) {
		n += bcOpOverhead
	}
	for _, op := range in.Ops {
		n += bcOpOverhead + 2*len(op.Args) + len(op.Data)
	}
	return n
}

// Serialize encodes the input to flat bytecode.
func Serialize(in *Input) []byte {
	out := make([]byte, 0, EncodedLen(in))
	out = append(out, bcMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, bcVersion)
	nops := uint32(len(in.Ops))
	if in.SnapshotAt >= 0 {
		nops++
	}
	out = binary.LittleEndian.AppendUint32(out, nops)
	for i, op := range in.Ops {
		if in.SnapshotAt == i {
			out = AppendOp(out, Op{Node: SnapshotNode})
		}
		out = AppendOp(out, op)
	}
	if in.SnapshotAt == len(in.Ops) {
		out = AppendOp(out, Op{Node: SnapshotNode})
	}
	return out
}

// Deserialize decodes flat bytecode into an Input. At most one snapshot
// marker is honored (the fuzzer only ever keeps one incremental snapshot).
func Deserialize(b []byte) (*Input, error) {
	if len(b) < bcHeaderLen || b[0] != bcMagic[0] || b[1] != bcMagic[1] || b[2] != bcMagic[2] || b[3] != bcMagic[3] {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBytecode)
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != bcVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadBytecode, v)
	}
	nops := binary.LittleEndian.Uint32(b[6:])
	off := bcHeaderLen
	// An op takes bcOpOverhead bytes or more: a count the bytes left cannot
	// hold is rejected before it sizes anything.
	if uint64(nops) > uint64(len(b)-off)/bcOpOverhead {
		return nil, fmt.Errorf("%w: %d ops in %d bytes", ErrBadBytecode, nops, len(b)-off)
	}
	in := &Input{Ops: make([]Op, 0, nops), SnapshotAt: -1}
	for i := uint32(0); i < nops; i++ {
		if off+3 > len(b) {
			return nil, fmt.Errorf("%w: truncated op header at %d", ErrBadBytecode, off)
		}
		node := NodeID(binary.LittleEndian.Uint16(b[off:]))
		nargs := int(b[off+2])
		off += 3
		if node == SnapshotNode {
			if nargs != 0 {
				return nil, fmt.Errorf("%w: snapshot op with args", ErrBadBytecode)
			}
			if off+4 > len(b) {
				return nil, fmt.Errorf("%w: truncated snapshot op", ErrBadBytecode)
			}
			if dl := binary.LittleEndian.Uint32(b[off:]); dl != 0 {
				return nil, fmt.Errorf("%w: snapshot op with data", ErrBadBytecode)
			}
			off += 4
			if in.SnapshotAt < 0 {
				in.SnapshotAt = len(in.Ops)
			}
			continue
		}
		op := Op{Node: node}
		if off+2*nargs > len(b) {
			return nil, fmt.Errorf("%w: truncated args at %d", ErrBadBytecode, off)
		}
		for j := 0; j < nargs; j++ {
			op.Args = append(op.Args, binary.LittleEndian.Uint16(b[off:]))
			off += 2
		}
		if off+4 > len(b) {
			return nil, fmt.Errorf("%w: truncated data length at %d", ErrBadBytecode, off)
		}
		dl := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if dl < 0 || dl > len(b)-off {
			return nil, fmt.Errorf("%w: truncated payload (%d bytes) at %d", ErrBadBytecode, dl, off)
		}
		op.Data = append([]byte(nil), b[off:off+dl]...)
		off += dl
		in.Ops = append(in.Ops, op)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBytecode, len(b)-off)
	}
	return in, nil
}
