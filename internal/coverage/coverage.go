// Package coverage implements AFL-style edge coverage: a 64 KiB bitmap of
// hit counts per (prev, cur) location pair, hit-count bucket classification,
// and a global "virgin" map for detecting inputs that exercise new
// behaviour. Nyx-Net uses AFL's compile-time instrumentation on
// ProFuzzBench (§4.5); the targets in this reproduction are instrumented
// with explicit location probes that feed the same data structure.
package coverage

import "encoding/binary"

// MapSize is the trace bitmap size in bytes (AFL's default).
const MapSize = 1 << 16

// Trace is the per-execution hit-count bitmap. A journal of touched
// indices makes Reset and Merge cost proportional to the edges actually
// hit rather than the map size — the same trick Nyx's dirty-page stack
// plays for memory (§2.3), applied to coverage.
type Trace struct {
	bits    [MapSize]byte
	touched []uint32
	prev    uint32
}

// Reset clears the trace for a new execution.
func (t *Trace) Reset() {
	for _, i := range t.touched {
		t.bits[i] = 0
	}
	t.touched = t.touched[:0]
	t.prev = 0
}

// Hit records execution of the basic block identified by loc, updating the
// edge counter exactly as AFL's instrumentation does:
//
//	bits[(loc ^ prev) % MapSize]++; prev = loc >> 1
func (t *Trace) Hit(loc uint32) {
	idx := (loc ^ t.prev) & (MapSize - 1)
	if t.bits[idx] == 0 {
		t.touched = append(t.touched, idx)
	}
	t.bits[idx]++
	t.prev = loc >> 1
}

// Bits exposes the raw hit counts.
func (t *Trace) Bits() *[MapSize]byte { return &t.bits }

// CountEdges returns the number of distinct edges hit in this trace.
func (t *Trace) CountEdges() int { return len(t.touched) }

// Touched returns the bitmap indices hit in this trace, in hit order. The
// returned slice aliases the trace's journal: it is valid until the next
// Reset and must not be mutated. It lets consumers (trim signatures, corpus
// brokers) walk a trace in O(edges hit) instead of O(MapSize).
func (t *Trace) Touched() []uint32 { return t.touched }

// BucketOf classifies a hit count into AFL's power-of-two buckets. It is
// the single classification every layer must share: the virgin map, the
// bucketed trace snapshots, and trim signatures all agree on what counts as
// "the same behaviour" only because they use this one table.
func BucketOf(c byte) byte {
	switch {
	case c == 0:
		return 0
	case c == 1:
		return 1
	case c == 2:
		return 2
	case c == 3:
		return 4
	case c <= 7:
		return 8
	case c <= 15:
		return 16
	case c <= 31:
		return 32
	case c <= 127:
		return 64
	default:
		return 128
	}
}

// Virgin is the global coverage map of a fuzzing campaign: the union of all
// bucketed hit patterns seen so far.
type Virgin struct {
	bits  [MapSize]byte
	edges int
}

// Merge folds a trace into the virgin map. It returns hasNew (any new
// bucket bit anywhere) and newEdge (an edge that had never been hit at
// all), mirroring AFL's distinction between "new path" and "new coverage".
func (v *Virgin) Merge(t *Trace) (hasNew, newEdge bool) {
	for _, i := range t.touched {
		c := t.bits[i]
		b := BucketOf(c)
		if v.bits[i]&b == 0 {
			hasNew = true
			if v.bits[i] == 0 {
				newEdge = true
				v.edges++
			}
			v.bits[i] |= b
		}
	}
	return hasNew, newEdge
}

// Edges returns the number of distinct edges ever observed — the "branches"
// metric plotted in the paper's Figure 5 and Table 2.
func (v *Virgin) Edges() int { return v.edges }

// BucketHit is one classified edge of a trace: the bitmap index and the
// power-of-two hit bucket it landed in. A slice of BucketHits is the
// durable record of what one execution covered, detached from the Trace it
// came from — the currency a corpus broker needs to dedup inputs published
// by independent campaign workers against a global virgin map.
type BucketHit struct {
	Index  uint32
	Bucket byte
}

// Bucketed returns a compact classified snapshot of the trace, valid after
// the Trace itself is Reset. The snapshot has one entry per touched index,
// in hit order. The result is freshly allocated — callers that retain it
// (queue entries, the corpus broker) own it outright.
func (t *Trace) Bucketed() []BucketHit {
	out := make([]BucketHit, len(t.touched))
	for k, i := range t.touched {
		out[k] = BucketHit{Index: i, Bucket: BucketOf(t.bits[i])}
	}
	return out
}

// MergeBuckets folds a bucketed trace snapshot into the virgin map with the
// same semantics as Merge. Out-of-range indices are ignored (defensive:
// snapshots may have crossed a process/serialization boundary).
func (v *Virgin) MergeBuckets(hits []BucketHit) (hasNew, newEdge bool) {
	for _, h := range hits {
		if h.Index >= MapSize {
			continue
		}
		if v.bits[h.Index]&h.Bucket == 0 && h.Bucket != 0 {
			hasNew = true
			if v.bits[h.Index] == 0 {
				newEdge = true
				v.edges++
			}
			v.bits[h.Index] |= h.Bucket
		}
	}
	return hasNew, newEdge
}

// MergeMasked folds mask-valued hits into the virgin map: unlike
// MergeBuckets (whose Bucket is a single classification bit), each hit's
// Bucket here is a set of bucket bits and every bit not yet present is
// OR-ed in. This is the receiving side of AppendNewTo — the wire format a
// worker uses to ship its virgin-map delta to the broker without sending
// the whole 64 KiB map.
func (v *Virgin) MergeMasked(hits []BucketHit) (hasNew bool) {
	for _, h := range hits {
		if h.Index >= MapSize {
			continue
		}
		if add := h.Bucket &^ v.bits[h.Index]; add != 0 {
			hasNew = true
			if v.bits[h.Index] == 0 {
				v.edges++
			}
			v.bits[h.Index] |= add
		}
	}
	return hasNew
}

// AppendNewTo computes the delta between v and base — every bucket bit
// present in v but absent from base — appending it to dst as mask-valued
// hits in ascending index order, and folds the delta into base so the next
// call reports only what is new since this one. A campaign worker keeps
// base as its "already published" shadow: each epoch it appends the fresh
// bits, ships them, and the broker applies them with MergeMasked. The maps
// are compared eight bytes at a time, and byte by byte only inside a word
// that has new bits.
func (v *Virgin) AppendNewTo(base *Virgin, dst []BucketHit) []BucketHit {
	for w := 0; w < MapSize; w += 8 {
		if binary.LittleEndian.Uint64(v.bits[w:])&^binary.LittleEndian.Uint64(base.bits[w:]) == 0 {
			continue
		}
		for i := w; i < w+8; i++ {
			if add := v.bits[i] &^ base.bits[i]; add != 0 {
				dst = append(dst, BucketHit{Index: uint32(i), Bucket: v.bits[i]})
				if base.bits[i] == 0 {
					base.edges++
				}
				base.bits[i] |= add
			}
		}
	}
	return dst
}
