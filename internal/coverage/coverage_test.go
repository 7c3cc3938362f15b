package coverage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHitRecordsEdges(t *testing.T) {
	var tr Trace
	tr.Hit(1)
	tr.Hit(2)
	tr.Hit(1)
	if got := tr.CountEdges(); got != 3 {
		t.Fatalf("edges = %d, want 3 (1, 1->2, 2->1)", got)
	}
}

func TestResetClears(t *testing.T) {
	var tr Trace
	tr.Hit(1)
	tr.Reset()
	if tr.CountEdges() != 0 {
		t.Fatal("reset should clear trace")
	}
	// prev must also reset: same sequence yields same edges.
	tr.Hit(5)
	a := tr.CountEdges()
	tr.Reset()
	tr.Hit(5)
	if tr.CountEdges() != a {
		t.Fatal("reset should clear prev register")
	}
}

func TestEdgeIsDirectional(t *testing.T) {
	var a, b Trace
	a.Hit(1)
	a.Hit(2)
	b.Hit(2)
	b.Hit(1)
	// (1->2) and (2->1) must hash differently (AFL's prev>>1 trick).
	idxA, idxB := -1, -1
	for i := range a.Bits() {
		if a.Bits()[i] != 0 && b.Bits()[i] == 0 {
			idxA = i
		}
		if b.Bits()[i] != 0 && a.Bits()[i] == 0 {
			idxB = i
		}
	}
	if idxA < 0 || idxB < 0 {
		t.Fatal("directional edges should differ")
	}
}

func TestVirginMergeNewEdges(t *testing.T) {
	var v Virgin
	var tr Trace
	tr.Hit(1)
	tr.Hit(2)
	hasNew, newEdge := v.Merge(&tr)
	if !hasNew || !newEdge {
		t.Fatal("first merge should report new coverage")
	}
	edges := v.Edges()
	if edges == 0 {
		t.Fatal("edges should be counted")
	}
	// Same trace again: nothing new.
	hasNew, newEdge = v.Merge(&tr)
	if hasNew || newEdge {
		t.Fatal("identical trace should not be new")
	}
	if v.Edges() != edges {
		t.Fatal("edge count should not change")
	}
}

func TestVirginBucketTransitions(t *testing.T) {
	var v Virgin
	var tr Trace
	tr.Hit(7)
	v.Merge(&tr)

	// Same edge hit many more times: new bucket, but not a new edge.
	tr.Reset()
	for i := 0; i < 10; i++ {
		tr.Hit(7)
		tr.prev = 0 // as if each hit were its own execution
	}
	hasNew, newEdge := v.Merge(&tr)
	if !hasNew {
		t.Fatal("higher hit bucket should be new")
	}
	if newEdge {
		t.Fatal("bucket change is not a new edge")
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := byte(0)
	for c := 0; c < 256; c++ {
		b := BucketOf(byte(c))
		if c > 0 && b < prev {
			t.Fatalf("BucketOf(%d) = %d < BucketOf(%d) = %d", c, b, c-1, prev)
		}
		prev = b
	}
	if BucketOf(0) != 0 || BucketOf(1) != 1 || BucketOf(255) != 128 {
		t.Fatal("bucket boundaries wrong")
	}
}

// Property: merging any trace twice is idempotent.
func TestMergeIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var v Virgin
		var tr Trace
		for i := 0; i < 50; i++ {
			tr.Hit(uint32(rng.Intn(1000)))
		}
		v.Merge(&tr)
		snap := v.bits
		hasNew, _ := v.Merge(&tr)
		return !hasNew && v.bits == snap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge count is monotonically non-decreasing under merges.
func TestEdgesMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var v Virgin
		last := 0
		for i := 0; i < 20; i++ {
			var tr Trace
			for j := 0; j < 10; j++ {
				tr.Hit(uint32(rng.Intn(500)))
			}
			v.Merge(&tr)
			if v.Edges() < last {
				return false
			}
			last = v.Edges()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging a trace's Bucketed snapshot into a virgin map is
// equivalent to merging the trace directly.
func TestBucketedEquivalentToMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var direct, viaBuckets Virgin
		for i := 0; i < 10; i++ {
			var tr Trace
			for j := 0; j < 30; j++ {
				tr.Hit(uint32(rng.Intn(1000)))
			}
			hits := tr.Bucketed()
			dNew, dEdge := direct.Merge(&tr)
			bNew, bEdge := viaBuckets.MergeBuckets(hits)
			if dNew != bNew || dEdge != bEdge {
				return false
			}
		}
		if direct.Edges() != viaBuckets.Edges() {
			return false
		}
		return direct.bits == viaBuckets.bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Bucketed snapshots must survive a Reset of the trace they came from.
func TestBucketedSurvivesReset(t *testing.T) {
	var tr Trace
	tr.Hit(1)
	tr.Hit(2)
	hits := tr.Bucketed()
	tr.Reset()
	var v Virgin
	hasNew, _ := v.MergeBuckets(hits)
	if !hasNew || v.Edges() != 2 {
		t.Fatalf("hasNew=%v edges=%d, want true/2", hasNew, v.Edges())
	}
}

func TestMergeBucketsIgnoresOutOfRange(t *testing.T) {
	var v Virgin
	hasNew, _ := v.MergeBuckets([]BucketHit{{Index: MapSize + 7, Bucket: 1}})
	if hasNew || v.Edges() != 0 {
		t.Fatal("out-of-range index must be ignored")
	}
}

func TestVirginMarshalRoundTrip(t *testing.T) {
	var v Virgin
	var tr Trace
	for _, l := range []uint32{0, 1, 5, 77, 400, 65000} {
		tr.Hit(l)
	}
	v.Merge(&tr)
	raw, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Virgin
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if got.Edges() != v.Edges() {
		t.Fatalf("edges = %d, want %d", got.Edges(), v.Edges())
	}
	if got.bits != v.bits {
		t.Fatal("round-tripped map differs")
	}
	// Empty map round-trips too.
	var empty, emptyBack Virgin
	raw, err = empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := emptyBack.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if emptyBack.Edges() != 0 {
		t.Fatal("empty map gained edges")
	}
}

func TestVirginUnmarshalRejectsGarbage(t *testing.T) {
	var v Virgin
	for _, raw := range [][]byte{nil, []byte("NYXV"), []byte("BOGUS data"), append([]byte("NYXV\x01"), 0xFF)} {
		if err := v.UnmarshalBinary(raw); err == nil {
			t.Fatalf("accepted garbage %q", raw)
		}
	}
}

// marshalBytes is MarshalBinary as a walk of every byte of the map: what
// the word walk must write.
func marshalBytes(v *Virgin) []byte {
	count := 0
	for _, b := range v.bits {
		if b != 0 {
			count++
		}
	}
	out := binary.AppendUvarint(bytes.Clone(virginMagic), uint64(count))
	prev := 0
	for i, b := range v.bits {
		if b != 0 {
			out = binary.AppendUvarint(out, uint64(i-prev))
			out = append(out, b)
			prev = i
		}
	}
	return out
}

// The word walk writes what a walk of every byte writes, on maps with
// every bucket value (0x80 and 0xff included, which a carry between bytes
// would miscount) at every density, and the result decodes to the map.
func TestVirginMarshalMatchesByteWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, density := range []float64{0, 0.0005, 0.01, 0.3, 0.9, 1} {
		var v Virgin
		for i := range v.bits {
			if rng.Float64() < density {
				v.bits[i] = byte(1 + rng.Intn(255))
			}
		}
		v.bits[MapSize-1], v.bits[MapSize/2] = 0x80, 0xff
		raw, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalBytes(&v); !bytes.Equal(raw, want) {
			t.Fatalf("density %v: %d bytes, the byte walk %d", density, len(raw), len(want))
		}
		var back Virgin
		if err := back.UnmarshalBinary(raw); err != nil || back.bits != v.bits || back.Edges() != MapSize-bytes.Count(v.bits[:], []byte{0}) {
			t.Fatalf("density %v: decoded to another map (%v)", density, err)
		}
	}
}

// The decoder is canonical: it refuses each thing MarshalBinary never
// writes — a zero bucket byte, a zero delta after the first entry, a varint
// longer than its minimal form, an index past the map, a count the map
// cannot hold — though each decodes to some map under a lenient reader.
func TestVirginUnmarshalIsCanonical(t *testing.T) {
	stream := func(count byte, rest ...byte) []byte {
		return append(append(bytes.Clone(virginMagic), count), rest...)
	}
	var v Virgin
	for _, good := range [][]byte{stream(0), stream(1, 0, 1), stream(2, 0, 1, 1, 2), stream(1, 0xff, 0xff, 0x03, 4)} {
		if err := v.UnmarshalBinary(good); err != nil {
			t.Fatalf("%x: %v", good, err)
		}
		if raw, _ := v.MarshalBinary(); !bytes.Equal(raw, good) {
			t.Fatalf("%x re-encodes to %x", good, raw)
		}
	}
	for name, bad := range map[string][]byte{
		"zero bucket":          stream(1, 5, 0),
		"zero delta":           stream(2, 5, 1, 0, 2),
		"overlong delta":       stream(1, 0x85, 0x00, 1),
		"overlong count":       append(bytes.Clone(virginMagic), 0x81, 0x00, 0, 1),
		"index past the map":   stream(1, 0x80, 0x80, 0x04, 1),
		"delta wraps":          stream(2, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1),
		"count beyond the map": append(bytes.Clone(virginMagic), 0x81, 0x80, 0x04),
	} {
		if err := v.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: %x decoded", name, bad)
		}
	}
}

// Property: AppendNewTo against a shadow map, applied with MergeMasked,
// reconstructs the source map exactly — across multiple incremental rounds
// — and reports nothing once the shadow has caught up.
func TestAppendNewToMergeMaskedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var src, shadow, remote Virgin
		for round := 0; round < 5; round++ {
			var tr Trace
			for j := 0; j < 60; j++ {
				tr.Hit(rng.Uint32())
			}
			src.Merge(&tr)
			delta := src.AppendNewTo(&shadow, nil)
			remote.MergeMasked(delta)
		}
		if again := src.AppendNewTo(&shadow, nil); len(again) != 0 {
			return false
		}
		if remote.Edges() != src.Edges() || shadow.Edges() != src.Edges() {
			return false
		}
		return remote.bits == src.bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// AppendNewTo emits deltas in ascending index order, so a worker's virgin
// delta is canonical: the same pair of maps yields the same hits in the same
// order however their edges were hit, and what a campaign broker merges with
// MergeMasked does not depend on hit order.
func TestAppendNewToAscendingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var src, shadow Virgin
	var tr Trace
	for j := 0; j < 500; j++ {
		tr.Hit(rng.Uint32())
	}
	src.Merge(&tr)
	delta := src.AppendNewTo(&shadow, nil)
	if len(delta) == 0 {
		t.Fatal("no delta")
	}
	for i := 1; i < len(delta); i++ {
		if delta[i].Index <= delta[i-1].Index {
			t.Fatalf("delta not ascending at %d: %d then %d", i, delta[i-1].Index, delta[i].Index)
		}
	}
}

// appendNewToBytes is AppendNewTo as a loop over every byte: what the word
// scan must agree with.
func appendNewToBytes(v, base *Virgin, dst []BucketHit) []BucketHit {
	for i := range v.bits {
		if add := v.bits[i] &^ base.bits[i]; add != 0 {
			dst = append(dst, BucketHit{Index: uint32(i), Bucket: v.bits[i]})
			if base.bits[i] == 0 {
				base.edges++
			}
			base.bits[i] |= add
		}
	}
	return dst
}

// AppendNewTo scans words, and gives the byte loop's hits in its order and
// leaves base as it does, edge count included, on sparse, dense and all-new
// maps against empty, partial and equal bases.
func TestAppendNewToMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fill := func(v *Virgin, density float64) {
		for i := range v.bits {
			if rng.Float64() < density {
				v.bits[i] = byte(1 << rng.Intn(8))
			}
		}
		v.edges = 0
		for _, b := range v.bits {
			if b != 0 {
				v.edges++
			}
		}
	}
	for _, tc := range []struct {
		name          string
		src, partBase float64
	}{
		{"sparse", 0.001, 0},
		{"sparse against partial base", 0.01, 0.005},
		{"dense", 0.5, 0.2},
		{"all new", 1, 0},
	} {
		var src, base Virgin
		fill(&src, tc.src)
		if tc.name == "all new" {
			for i := range src.bits {
				src.bits[i] |= 0x81
			}
		}
		fill(&base, tc.partBase)
		base2 := base
		got := src.AppendNewTo(&base, nil)
		want := appendNewToBytes(&src, &base2, nil)
		if len(got) != len(want) || base != base2 {
			t.Fatalf("%s: %d hits, the byte loop %d; bases equal %v", tc.name, len(got), len(want), base == base2)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: hit %d is %+v, the byte loop's %+v", tc.name, i, got[i], want[i])
			}
		}
		if again := src.AppendNewTo(&base, nil); len(again) != 0 {
			t.Fatalf("%s: %d hits against a base that caught up", tc.name, len(again))
		}
	}
}
