package guest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// StateWriter serializes guest kernel and target state into a compact
// little-endian byte stream. The stream is written into guest physical
// memory at every snapshot take that follows an event, so that VM snapshots
// capture the full logical state of the system (see Kernel.flush).
type StateWriter struct {
	buf []byte

	// measuring makes the writer measure instead of encode: every write adds
	// the length it would append to n and appends nothing, so a caller learns
	// how long a stream is without building it (see Kernel.discard).
	measuring bool
	n         int
}

// The encodings themselves, as functions of a slice: a writer that has many
// fields to append (Kernel.marshal, the table writers) appends them to a
// local copy of buf, which stays in registers, and stores it back once.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendInt(b []byte, v int) []byte    { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendString[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

// Bytes returns the serialized stream. Like bytes.Buffer.Bytes, the slice
// aliases the writer's buffer and is only valid until the next append.
func (w *StateWriter) Bytes() []byte { return w.buf }

// Reset truncates the stream, keeping the backing array for reuse. The
// kernel serializes state about once per execution; recycling the encode
// buffer keeps that allocation-flat.
func (w *StateWriter) Reset() { w.buf, w.n = w.buf[:0], 0 }

// Grow makes room for n more bytes, so a writer that knows how long its
// stream will be allocates it once instead of doubling its way there.
func (w *StateWriter) Grow(n int) {
	if !w.measuring {
		w.buf = slices.Grow(w.buf, n)
	}
}

// encodes reports whether a write of n bytes is to be appended: a measuring
// writer adds n to its count instead.
func (w *StateWriter) encodes(n int) bool {
	if w.measuring {
		w.n += n
	}
	return !w.measuring
}

// U8 appends a byte.
func (w *StateWriter) U8(v uint8) {
	if w.encodes(1) {
		w.buf = append(w.buf, v)
	}
}

// U32 appends a uint32.
func (w *StateWriter) U32(v uint32) {
	if w.encodes(4) {
		w.buf = appendU32(w.buf, v)
	}
}

// U64 appends a uint64.
func (w *StateWriter) U64(v uint64) {
	if w.encodes(8) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// I64 appends an int64.
func (w *StateWriter) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int (as int64).
func (w *StateWriter) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64.
func (w *StateWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean.
func (w *StateWriter) Bool(v bool) { w.U8(boolByte(v)) }

func boolByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// Bytes32 appends a length-prefixed byte slice.
func (w *StateWriter) Bytes32(b []byte) {
	if w.encodes(4 + len(b)) {
		w.buf = appendString(w.buf, b)
	}
}

// String appends a length-prefixed string.
func (w *StateWriter) String(s string) {
	if w.encodes(4 + len(s)) {
		w.buf = appendString(w.buf, s)
	}
}

// StateReader deserializes a StateWriter stream. Decoding errors are
// sticky: after the first failure all reads return zero values and Err
// reports the cause.
type StateReader struct {
	buf []byte
	off int
	err error

	// reread says that the stream is the image of the capture the kernel
	// last decoded, and is the one switch between reusing and decoding: a
	// hydrate reuses what it decoded only for the capture it decoded. On a
	// reread stream every Table copies back what it decoded its section to
	// (Table.copyBack), and the filesystem skips a section its cached
	// encoding was read from (FS.unmarshal); on any other, both decode, and
	// no byte is compared either way. The kernel sets it for a hydrate of
	// the capture it last read (see Kernel.copyBack), and Reset clears it.
	reread bool
}

// NewStateReader wraps b for reading.
func NewStateReader(b []byte) *StateReader { return &StateReader{buf: b} }

// Reset re-arms the reader over b, clearing any sticky error, so a decode
// scratch reader can be recycled across restores. Like NewStateReader, the
// reader reads from b in place; the caller keeps ownership and must not
// mutate it until decoding finishes.
func (r *StateReader) Reset(b []byte) { r.buf, r.off, r.err, r.reread = b, 0, nil, false }

// Err returns the first decoding error, if any.
func (r *StateReader) Err() error { return r.err }

// Done ends a decode: a stream stops where its contents stop, so bytes left
// unread fail the reader like any other malformed input. It returns Err.
func (r *StateReader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("statebuf: %d bytes after the end of the stream", len(r.buf)-r.off)
	}
	return r.err
}

func (r *StateReader) take(n int) []byte {
	if n > len(r.buf)-r.off {
		r.Fail("statebuf: truncated read of %d bytes at offset %d/%d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8, U32 and U64 are what a decode mostly consists of, so each is small
// enough to inline, failure included: a call costs most of the inliner's
// budget, so a read that comes up short fails the reader with an error that
// needs no formatting.

// errShort is the error of a fixed-size read the stream is too short for;
// reads are sequential, so it happened within eight bytes of the end.
var errShort = errors.New("statebuf: truncated read at the end of the stream")

// U8 reads a byte.
func (r *StateReader) U8() uint8 {
	if b := r.buf[r.off:]; len(b) >= 1 {
		r.off++
		return b[0]
	}
	r.fail(errShort)
	return 0
}

// U32 reads a uint32.
func (r *StateReader) U32() uint32 {
	if b := r.buf[r.off:]; len(b) >= 4 {
		r.off += 4
		return binary.LittleEndian.Uint32(b)
	}
	r.fail(errShort)
	return 0
}

// U64 reads a uint64.
func (r *StateReader) U64() uint64 {
	if b := r.buf[r.off:]; len(b) >= 8 {
		r.off += 8
		return binary.LittleEndian.Uint64(b)
	}
	r.fail(errShort)
	return 0
}

// I64 reads an int64.
func (r *StateReader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *StateReader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *StateReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean. Only the two bytes Bool writes decode, so a stream
// that decodes is the stream its contents encode to.
func (r *StateReader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("statebuf: boolean byte %d at offset %d", v, r.off-1)
	}
	return v == 1
}

// Fail records the reader's first error and empties the stream, so that
// every read after it comes up short and returns a zero value. Callers use it
// too, for a value they decoded that the stream's writer would never have
// written: the error then is the reader's own, and first like any other.
func (r *StateReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.fail(fmt.Errorf(format, args...))
	}
}

// fail is Fail with the error made.
func (r *StateReader) fail(err error) {
	if r.err == nil {
		r.err, r.buf, r.off = err, nil, 0
	}
}

// Count reads the u32 element count of a sequence whose elements take at
// least size bytes each, and fails the reader when the rest of the stream
// cannot hold that many: a corrupt count is an error here, before it sizes
// an allocation or bounds a loop. It returns 0 once the reader has failed.
func (r *StateReader) Count(size int) int {
	n := int(r.U32())
	if n*size > len(r.buf)-r.off {
		r.Fail("statebuf: count %d of %d-byte elements exceeds remaining %d bytes", n, size, len(r.buf)-r.off)
		return 0
	}
	return n
}

// View32 reads a length-prefixed byte slice without copying it: the result
// aliases the stream, with its capacity cut to its length, and keeps the
// whole stream reachable for as long as it is held.
func (r *StateReader) View32() []byte {
	if b := r.buf[r.off:]; len(b) >= 4 {
		if n := binary.LittleEndian.Uint32(b); uint64(n) <= uint64(len(b)-4) {
			r.off += 4 + int(n)
			return b[4 : 4+n : 4+n]
		}
	}
	return r.take(r.Count(1)) // too short for its prefix or for its length: fails
}

// String reads a length-prefixed string.
func (r *StateReader) String() string { return string(r.View32()) }

// StringTo reads a length-prefixed string onto the end of sb and returns it
// cut from sb's contents: strings read through one builder share its buffer,
// one allocation for as many as its capacity holds. A builder only appends,
// so no string cut from it changes, even once it has grown.
func (r *StateReader) StringTo(sb *strings.Builder) string {
	v := r.View32()
	n := sb.Len()
	sb.Write(v)
	return sb.String()[n:]
}

// appendInts reads a length-prefixed int slice onto dst.
func (r *StateReader) appendInts(dst []int) []int {
	n := r.Count(8)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Int())
	}
	return dst
}
