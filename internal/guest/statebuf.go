package guest

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// StateWriter serializes guest kernel and target state into a compact
// little-endian byte stream. The stream is written into guest physical
// memory at every VM exit that follows an event, so that VM snapshots
// capture the full logical state of the system (see Kernel.flush).
type StateWriter struct {
	buf []byte
}

// Bytes returns the serialized stream. Like bytes.Buffer.Bytes, the slice
// aliases the writer's buffer and is only valid until the next append.
func (w *StateWriter) Bytes() []byte { return w.buf } //nyx:aliased bytes.Buffer-style contract; callers copy into guest memory immediately

// Reset truncates the stream, keeping the backing array for reuse. The
// kernel serializes state about once per execution; recycling the encode
// buffer keeps that allocation-flat.
func (w *StateWriter) Reset() { w.buf = w.buf[:0] }

// U8 appends a byte.
func (w *StateWriter) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a uint16.
func (w *StateWriter) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a uint32.
func (w *StateWriter) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a uint64.
func (w *StateWriter) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64.
func (w *StateWriter) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int (as int64).
func (w *StateWriter) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64.
func (w *StateWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean.
func (w *StateWriter) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a length-prefixed byte slice.
func (w *StateWriter) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *StateWriter) String(s string) { w.Bytes32([]byte(s)) }

// StringSlice appends a length-prefixed slice of strings.
func (w *StateWriter) StringSlice(ss []string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// IntSlice appends a length-prefixed slice of ints.
func (w *StateWriter) IntSlice(vs []int) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
}

// SortedKeys returns map keys in sorted order, for deterministic encoding.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// SortedIntKeys returns integer map keys in sorted order.
func SortedIntKeys[M ~map[int]V, V any](m M) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// StateReader deserializes a StateWriter stream. Decoding errors are
// sticky: after the first failure all reads return zero values and Err
// reports the cause.
type StateReader struct {
	buf []byte
	off int
	err error
}

// NewStateReader wraps b for reading.
func NewStateReader(b []byte) *StateReader { return &StateReader{buf: b} }

// Reset re-arms the reader over b, clearing any sticky error, so a decode
// scratch reader can be recycled across restores. Like NewStateReader, the
// reader reads from b in place; the caller keeps ownership and must not
// mutate it until decoding finishes.
func (r *StateReader) Reset(b []byte) { r.buf, r.off, r.err = b, 0, nil } //nyx:retains reads in place until next Reset, same contract as NewStateReader

// Err returns the first decoding error, if any.
func (r *StateReader) Err() error { return r.err }

func (r *StateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("statebuf: truncated read of %d bytes at offset %d/%d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a byte.
func (r *StateReader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (r *StateReader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *StateReader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *StateReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *StateReader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *StateReader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *StateReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean.
func (r *StateReader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a length-prefixed byte slice (copied).
func (r *StateReader) Bytes32() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.err = fmt.Errorf("statebuf: length %d exceeds remaining %d", n, len(r.buf)-r.off)
		return nil
	}
	b := r.take(n)
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// String reads a length-prefixed string.
func (r *StateReader) String() string { return string(r.Bytes32()) }

// StringSlice reads a length-prefixed string slice.
func (r *StateReader) StringSlice() []string {
	n := int(r.U32())
	if r.err != nil || n < 0 {
		return nil
	}
	if n > len(r.buf)-r.off { // each element needs >= 4 bytes; cheap sanity bound
		r.err = fmt.Errorf("statebuf: slice length %d implausible", n)
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String())
	}
	return out
}

// IntSlice reads a length-prefixed int slice.
func (r *StateReader) IntSlice() []int {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n*8 > len(r.buf)-r.off {
		r.err = fmt.Errorf("statebuf: int slice length %d implausible", n)
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Int())
	}
	return out
}
