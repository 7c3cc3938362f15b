package coverage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Virgin maps persist across campaign checkpoints as a sparse stream:
// a magic header, the populated-index count, then (uvarint index-delta,
// bucket-bits byte) pairs in ascending index order. Coverage maps are
// usually <1% populated, so this stays a few KiB instead of 64 KiB. The
// stream is canonical: every varint is minimal, every bucket byte nonzero
// and every delta after the first nonzero, so a stream that decodes is the
// stream its map encodes to.

// virginMagic identifies serialized virgin maps ("NYXV" + version 1).
var virginMagic = []byte{'N', 'Y', 'X', 'V', 1}

// lo7 is the low seven bits of every byte of a word.
const lo7 = 0x7f7f7f7f7f7f7f7f

// nonzeroBytes returns x with the high bit of each nonzero byte set and
// every other bit clear.
func nonzeroBytes(x uint64) uint64 { return ((x & lo7) + lo7 | x) &^ lo7 }

// MarshalBinary encodes the virgin map sparsely. It counts and walks the
// map eight bytes at a time, and visits only the nonzero bytes of a word.
func (v *Virgin) MarshalBinary() ([]byte, error) {
	count := 0
	for w := 0; w < MapSize; w += 8 {
		if x := binary.LittleEndian.Uint64(v.bits[w:]); x != 0 {
			count += bits.OnesCount64(nonzeroBytes(x))
		}
	}
	out := make([]byte, 0, len(virginMagic)+binary.MaxVarintLen32*(count+1)+count)
	out = append(out, virginMagic...)
	out = binary.AppendUvarint(out, uint64(count))
	prev := 0
	for w := 0; w < MapSize; w += 8 {
		x := binary.LittleEndian.Uint64(v.bits[w:])
		for nz := nonzeroBytes(x); nz != 0; nz &= nz - 1 {
			i := w + bits.TrailingZeros64(nz)/8
			out = binary.AppendUvarint(out, uint64(i-prev))
			out = append(out, v.bits[i])
			prev = i
		}
	}
	return out, nil
}

// uvarint decodes a minimal uvarint from the front of data; n <= 0 when
// there is none, or when it has a longer form than AppendUvarint writes.
func uvarint(data []byte) (x uint64, n int) {
	x, n = binary.Uvarint(data)
	if n > 1 && data[n-1] == 0 {
		return 0, 0
	}
	return x, n
}

// UnmarshalBinary decodes a sparse virgin map, replacing v's contents and
// recomputing the edge count. It accepts only what MarshalBinary writes.
func (v *Virgin) UnmarshalBinary(data []byte) error {
	if len(data) < len(virginMagic) || string(data[:len(virginMagic)]) != string(virginMagic) {
		return fmt.Errorf("coverage: bad virgin map header")
	}
	data = data[len(virginMagic):]
	count, n := uvarint(data)
	if n <= 0 {
		return fmt.Errorf("coverage: truncated virgin map count")
	}
	data = data[n:]
	var bits [MapSize]byte
	idx := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, n := uvarint(data)
		if n <= 0 || len(data) < n+1 {
			return fmt.Errorf("coverage: truncated virgin map entry %d", i)
		}
		b := data[n]
		data = data[n+1:]
		switch {
		case i > 0 && delta == 0:
			return fmt.Errorf("coverage: virgin map entry %d repeats index %d", i, idx)
		case delta >= MapSize-idx:
			return fmt.Errorf("coverage: virgin map entry %d: index out of range", i)
		case b == 0:
			return fmt.Errorf("coverage: virgin map entry %d has no bucket bits", i)
		}
		idx += delta
		bits[idx] = b
	}
	if len(data) != 0 {
		return fmt.Errorf("coverage: %d trailing bytes in virgin map", len(data))
	}
	v.bits = bits
	v.edges = int(count)
	return nil
}
