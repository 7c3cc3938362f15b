package coverage

import (
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
		tr.ResetPrev()
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
		snap := v.Snapshot()
		hasNew, _ := v.Merge(&tr)
		if hasNew {
			return false
		}
		snap2 := v.Snapshot()
		for i := range snap {
			if snap[i] != snap2[i] {
				return false
			}
		}
		return true
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
		return string(direct.Snapshot()) == string(viaBuckets.Snapshot())
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

// Property: MergeVirgin produces the same map as merging the underlying
// traces into one virgin, and reports gains correctly.
func TestMergeVirginUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, all Virgin
		for i := 0; i < 8; i++ {
			var tr Trace
			for j := 0; j < 20; j++ {
				tr.Hit(uint32(rng.Intn(800)))
			}
			if i%2 == 0 {
				a.Merge(&tr)
			} else {
				b.Merge(&tr)
			}
			all.Merge(&tr)
		}
		a.MergeVirgin(&b)
		if a.Edges() != all.Edges() {
			return false
		}
		if a.MergeVirgin(&b) {
			return false // second merge gains nothing
		}
		return string(a.Snapshot()) == string(all.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
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
	if string(got.Snapshot()) != string(v.Snapshot()) {
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
		a, b := src.Snapshot(), remote.Snapshot()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
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
