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
	return AppendSerialize(make([]byte, 0, EncodedLen(in)), in)
}

// AppendSerialize appends Serialize(in) to dst and returns the extended
// slice, for callers that hash or copy the encoding and keep no slice of it.
func AppendSerialize(dst []byte, in *Input) []byte {
	dst = append(dst, bcMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, bcVersion)
	nops := uint32(len(in.Ops))
	if in.SnapshotAt >= 0 {
		nops++
	}
	dst = binary.LittleEndian.AppendUint32(dst, nops)
	for i, op := range in.Ops {
		if in.SnapshotAt == i {
			dst = AppendOp(dst, Op{Node: SnapshotNode})
		}
		dst = AppendOp(dst, op)
	}
	if in.SnapshotAt == len(in.Ops) {
		dst = AppendOp(dst, Op{Node: SnapshotNode})
	}
	return dst
}

// Deserialize decodes flat bytecode into an Input. At most one snapshot
// marker is honored (the fuzzer only ever keeps one incremental snapshot).
//
// The input keeps b: every op's Data is a window into it (ops are never
// written — see the package comment — so a window is as good as a copy), and
// whatever shares the ops holds all of b reachable. A caller that writes b
// afterwards, or decodes out of a large buffer it wants collected, passes a
// copy.
func Deserialize(b []byte) (*Input, error) {
	in := new(Input)
	if _, _, err := DeserializeAppend(in, b, nil, nil); err != nil {
		return nil, err
	}
	return in, nil
}

// DeserializeAppend is Deserialize for a caller that decodes many inputs: it
// decodes b into *in, cuts in.Ops from the spare capacity of ops and the ops'
// Args from that of args, and returns both slabs extended by what it used.
// in.Ops and every Args array are cut to their own length, so an append to
// one input's array never reaches another's. A slab whose spare capacity is
// short of what b needs is replaced by a new one of max(need, cap): slabs of
// capacity c are handed out in chunks of c, and nil slabs give arrays of
// exactly b's size. On an error *in and both slabs are unchanged.
func DeserializeAppend(in *Input, b []byte, ops []Op, args []uint16) ([]Op, []uint16, error) {
	if len(b) < bcHeaderLen || b[0] != bcMagic[0] || b[1] != bcMagic[1] || b[2] != bcMagic[2] || b[3] != bcMagic[3] {
		return ops, args, fmt.Errorf("%w: bad magic", ErrBadBytecode)
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != bcVersion {
		return ops, args, fmt.Errorf("%w: unsupported version %d", ErrBadBytecode, v)
	}
	nops := int(binary.LittleEndian.Uint32(b[6:]))
	// An op takes bcOpOverhead bytes or more: a count the bytes left cannot
	// hold is rejected before it bounds a loop.
	if nops > (len(b)-bcHeaderLen)/bcOpOverhead {
		return ops, args, fmt.Errorf("%w: %d ops in %d bytes", ErrBadBytecode, nops, len(b)-bcHeaderLen)
	}
	// One pass over the op headers checks every length against the bytes
	// left and sizes what the slabs must hold; the second pass cannot fail.
	off, markers, nargs := bcHeaderLen, 0, 0
	for i := 0; i < nops; i++ {
		if off+bcOpOverhead > len(b) {
			return ops, args, fmt.Errorf("%w: truncated op header at %d", ErrBadBytecode, off)
		}
		node, na := NodeID(binary.LittleEndian.Uint16(b[off:])), int(b[off+2])
		off += 3 + 2*na
		if off+4 > len(b) {
			return ops, args, fmt.Errorf("%w: truncated args at %d", ErrBadBytecode, off)
		}
		dl := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if dl < 0 || dl > len(b)-off {
			return ops, args, fmt.Errorf("%w: truncated payload (%d bytes) at %d", ErrBadBytecode, dl, off)
		}
		off += dl
		if node != SnapshotNode {
			nargs += na
		} else if markers++; na != 0 || dl != 0 {
			return ops, args, fmt.Errorf("%w: snapshot op with args or data", ErrBadBytecode)
		}
	}
	if off != len(b) {
		return ops, args, fmt.Errorf("%w: %d trailing bytes", ErrBadBytecode, len(b)-off)
	}
	if n := nops - markers; cap(ops)-len(ops) < n {
		ops = make([]Op, 0, max(n, cap(ops)))
	}
	if cap(args)-len(args) < nargs {
		args = make([]uint16, 0, max(nargs, cap(args)))
	}
	first := len(ops)
	*in = Input{SnapshotAt: -1}
	for off = bcHeaderLen; off < len(b); {
		node, na := NodeID(binary.LittleEndian.Uint16(b[off:])), int(b[off+2])
		off += 3
		if node == SnapshotNode {
			if in.SnapshotAt < 0 {
				in.SnapshotAt = len(ops) - first
			}
			off += 4
			continue
		}
		var opArgs []uint16
		if na > 0 {
			from := len(args)
			for j := 0; j < na; j++ {
				args = append(args, binary.LittleEndian.Uint16(b[off+2*j:]))
			}
			opArgs = args[from:len(args):len(args)]
			off += 2 * na
		}
		dl := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		var data []byte
		if dl > 0 {
			data = b[off : off+dl : off+dl]
			off += dl
		}
		ops = append(ops, Op{Node: node, Args: opArgs, Data: data})
	}
	in.Ops = ops[first:len(ops):len(ops)]
	return ops, args, nil
}
