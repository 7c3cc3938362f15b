package snappool

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/spec"
)

// testInput builds an input of n single-byte packet ops with the given
// payload seed, so prefixes are content-distinguishable.
func testInput(n int, seed byte) *spec.Input {
	in := spec.NewInput()
	for i := 0; i < n; i++ {
		in.Ops = append(in.Ops, spec.Op{Node: 1, Data: []byte{seed, byte(i)}})
	}
	return in
}

func TestPrefixDigestProperties(t *testing.T) {
	a := testInput(8, 1)
	b := testInput(8, 1)
	c := testInput(8, 2)
	if PrefixDigest(a, 4) != PrefixDigest(b, 4) {
		t.Fatal("identical prefixes must digest identically")
	}
	if PrefixDigest(a, 4) == PrefixDigest(a, 5) {
		t.Fatal("different prefix lengths must digest differently")
	}
	if PrefixDigest(a, 4) == PrefixDigest(c, 4) {
		t.Fatal("different payloads must digest differently")
	}
	// Entries sharing a prefix but diverging later share prefix digests.
	d := testInput(8, 1)
	d.Ops[6].Data = []byte{0xFF}
	if PrefixDigest(a, 5) != PrefixDigest(d, 5) {
		t.Fatal("inputs diverging after the prefix must share the prefix digest")
	}
	// Field-boundary safety: args vs data must not collide.
	e1 := spec.NewInput(spec.Op{Node: 1, Args: []uint16{3}})
	e2 := spec.NewInput(spec.Op{Node: 1, Data: []byte{3, 0}})
	if PrefixDigest(e1, 1) == PrefixDigest(e2, 1) {
		t.Fatal("args and data must hash distinguishably")
	}
}

func TestResolveHitMissAndLongestPrefix(t *testing.T) {
	p := New(0)
	in := testInput(10, 1)
	d4 := PrefixDigest(in, 4)
	d7 := PrefixDigest(in, 7)
	p.Insert(d4, p.AllocSlot(), 4, 4096, 10*time.Millisecond)
	p.Insert(d7, p.AllocSlot(), 7, 4096, 20*time.Millisecond)

	if hit, _, _ := p.Resolve(in, 4); hit == nil || hit.Ops != 4 {
		t.Fatalf("expected hit at ops=4, got %+v", hit)
	}
	// Miss at 5: the longest strict prefix is the ops=4 snapshot.
	if hit, longest, _ := p.Resolve(in, 5); hit != nil || longest == nil || longest.Ops != 4 {
		t.Fatalf("Resolve(5): hit=%+v longest=%+v, want miss with ops=4 parent", hit, longest)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses: got %d/%d want 1/1", st.Hits, st.Misses)
	}

	// The longest strict prefix below a marker at 9 is ops=7.
	if _, longest, _ := p.Resolve(in, 9); longest == nil || longest.Ops != 7 {
		t.Fatalf("Resolve(9): longest=%+v, want ops=7", longest)
	}
	// A diverging input only matches the prefix it shares.
	div := testInput(10, 1)
	div.Ops[5].Data = []byte{0xEE}
	if _, longest, _ := p.Resolve(div, 9); longest == nil || longest.Ops != 4 {
		t.Fatalf("Resolve(diverging): longest=%+v, want ops=4", longest)
	}
}

func TestBudgetEviction(t *testing.T) {
	p := New(3 * 4096)
	in := testInput(10, 1)
	var evicted []*Entry
	for k := 1; k <= 5; k++ {
		kept, ev := p.Insert(PrefixDigest(in, k), p.AllocSlot(), k, 4096, time.Duration(k)*time.Millisecond)
		if !kept {
			t.Fatalf("insert %d not kept", k)
		}
		evicted = append(evicted, ev...)
	}
	st := p.Stats()
	if st.Bytes > 3*4096 {
		t.Fatalf("pool bytes %d exceed budget", st.Bytes)
	}
	if st.PeakBytes > 3*4096 {
		t.Fatalf("peak bytes %d exceed budget", st.PeakBytes)
	}
	if st.Evictions != 2 || len(evicted) != 2 {
		t.Fatalf("expected 2 evictions, got %d (%d returned)", st.Evictions, len(evicted))
	}
	if p.Len() != 3 {
		t.Fatalf("pool should hold 3 entries, got %d", p.Len())
	}
}

func TestEvictionPrefersColdCheapEntries(t *testing.T) {
	p := New(3 * 4096)
	in := testInput(10, 1)
	dExp := PrefixDigest(in, 1) // expensive to recreate
	dChp := PrefixDigest(in, 2) // cheap to recreate
	dMid := PrefixDigest(in, 3)
	p.Insert(dExp, p.AllocSlot(), 1, 4096, 100*time.Millisecond)
	p.Insert(dChp, p.AllocSlot(), 2, 4096, time.Millisecond)
	p.Insert(dMid, p.AllocSlot(), 3, 4096, 50*time.Millisecond)
	// All three are equally cold (insertion order only). Inserting a fourth
	// must evict the cheap one from the LRU half, not the expensive one.
	_, ev := p.Insert(PrefixDigest(in, 4), p.AllocSlot(), 4, 4096, 10*time.Millisecond)
	if len(ev) != 1 || ev[0].Digest != dChp {
		t.Fatalf("expected the cheap cold entry evicted, got %+v", ev)
	}
	// Touching the expensive entry keeps it out of the LRU half entirely.
	p.Resolve(in, 1)
	_, ev = p.Insert(PrefixDigest(in, 5), p.AllocSlot(), 5, 4096, 10*time.Millisecond)
	if len(ev) != 1 || ev[0].Digest == dExp {
		t.Fatalf("recently used expensive entry must survive, evicted %+v", ev)
	}
}

func TestUncacheableSnapshot(t *testing.T) {
	p := New(4096)
	in := testInput(4, 1)
	kept, ev := p.Insert(PrefixDigest(in, 2), p.AllocSlot(), 2, 2*4096, time.Millisecond)
	if kept || len(ev) != 0 {
		t.Fatalf("oversized snapshot must not be pooled (kept=%v ev=%d)", kept, len(ev))
	}
	if st := p.Stats(); st.Uncacheable != 1 || st.Bytes != 0 || st.Slots != 0 {
		t.Fatalf("uncacheable accounting wrong: %+v", st)
	}
}

// TestEvictionDeterministic replays a fixed randomized workload twice and
// demands identical eviction sequences — the pool half of the fixed-seed
// determinism contract the campaign layer relies on.
func TestEvictionDeterministic(t *testing.T) {
	run := func() []int {
		p := New(8 * 4096)
		rng := rand.New(rand.NewSource(7))
		in := testInput(64, 9)
		var evictedSlots []int
		for i := 0; i < 200; i++ {
			k := 1 + rng.Intn(63)
			hit, _, d := p.Resolve(in, k)
			if hit != nil {
				continue
			}
			bytes := int64(1+rng.Intn(3)) * 4096
			cost := time.Duration(1+rng.Intn(50)) * time.Millisecond
			kept, ev := p.Insert(d, p.AllocSlot(), k, bytes, cost)
			for _, e := range ev {
				evictedSlots = append(evictedSlots, e.Slot)
			}
			if !kept {
				evictedSlots = append(evictedSlots, -1)
			}
		}
		return evictedSlots
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("workload produced no evictions; test is vacuous")
	}
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction sequence diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLookupDigestFastPath(t *testing.T) {
	p := New(0)
	in := testInput(10, 1)
	d4 := PrefixDigest(in, 4)
	p.Insert(d4, p.AllocSlot(), 4, 4096, time.Millisecond)

	// A memoized-digest hit counts as a (digest) hit and refreshes LRU.
	e := p.LookupDigest(d4)
	if e == nil || e.Ops != 4 {
		t.Fatalf("LookupDigest hit = %+v, want ops=4", e)
	}
	st := p.Stats()
	if st.Hits != 1 || st.DigestHits != 1 || st.Misses != 0 {
		t.Fatalf("hits/digest/misses = %d/%d/%d, want 1/1/0", st.Hits, st.DigestHits, st.Misses)
	}

	// An absent digest is NOT counted as a miss: the caller falls back to
	// Resolve, which does the counting exactly once.
	if e := p.LookupDigest(PrefixDigest(in, 5)); e != nil {
		t.Fatalf("unexpected entry for uncached digest: %+v", e)
	}
	if st := p.Stats(); st.Misses != 0 {
		t.Fatalf("LookupDigest must not count misses, got %d", st.Misses)
	}
}

// TestLookupsAllocateNothing pins the pool's per-round cost: a memoized
// digest's lookup, hit or miss, and a full Resolve, hit or miss, allocate
// nothing — the scan reuses the pool's one hash and its scratch.
func TestLookupsAllocateNothing(t *testing.T) {
	p := New(0)
	in := testInput(10, 1)
	d4 := PrefixDigest(in, 4)
	p.Insert(d4, p.AllocSlot(), 4, 4096, time.Millisecond)
	p.Insert(PrefixDigest(in, 7), p.AllocSlot(), 7, 4096, time.Millisecond)
	d5 := PrefixDigest(in, 5)
	for name, lookup := range map[string]func(){
		"LookupDigest hit":  func() { p.LookupDigest(d4) },
		"LookupDigest miss": func() { p.LookupDigest(d5) },
		"Resolve hit":       func() { p.Resolve(in, 7) },
		"Resolve miss":      func() { p.Resolve(in, 9) },
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", name, n)
		}
	}
	if hit, longest, d := p.Resolve(in, 9); hit != nil || longest == nil || longest.Ops != 7 || d != PrefixDigest(in, 9) {
		t.Fatalf("Resolve(9) = %+v, %+v: the reused hash answered wrong", hit, longest)
	}
}

// TestScanEarlyExitMatchesFullScan pins the prefix-length index: the scan
// must resolve exactly the same hit/longest/digest as a position-by-position
// scan would, including after evictions retire a prefix length.
func TestScanEarlyExitMatchesFullScan(t *testing.T) {
	p := New(0)
	in := testInput(32, 3)
	for _, k := range []int{3, 9, 17} {
		p.Insert(PrefixDigest(in, k), p.AllocSlot(), k, 4096, time.Millisecond)
	}
	for limit := 0; limit <= 32; limit++ {
		hit, longest, d := p.Resolve(in, limit)
		if d != PrefixDigest(in, limit) {
			t.Fatalf("limit %d: digest mismatch", limit)
		}
		wantHit := limit == 3 || limit == 9 || limit == 17
		if (hit != nil) != wantHit {
			t.Fatalf("limit %d: hit = %v, want %v", limit, hit != nil, wantHit)
		}
		var wantLongest int
		for _, k := range []int{3, 9, 17} {
			if k < limit {
				wantLongest = k
			}
		}
		if hit == nil && ((longest == nil) != (wantLongest == 0) ||
			(longest != nil && longest.Ops != wantLongest)) {
			t.Fatalf("limit %d: longest = %+v, want ops=%d", limit, longest, wantLongest)
		}
	}
	// Retiring the only ops=9 entry must stop the scan from matching there.
	p.remove(p.entries[PrefixDigest(in, 9)])
	if p.prefixLens[9] != 0 {
		t.Fatalf("prefixLens[9] = %d after removal", p.prefixLens[9])
	}
	if _, longest, _ := p.Resolve(in, 12); longest == nil || longest.Ops != 3 {
		t.Fatalf("longest after eviction = %+v, want ops=3", longest)
	}
}

func TestResolveSinglePass(t *testing.T) {
	p := New(0)
	in := testInput(10, 1)
	d4 := PrefixDigest(in, 4)
	p.Insert(d4, p.AllocSlot(), 4, 4096, time.Millisecond)

	// Miss at 7: no hit, strict-prefix parent at 4, digest matches the
	// standalone PrefixDigest.
	hit, longest, digest := p.Resolve(in, 7)
	if hit != nil {
		t.Fatalf("unexpected hit: %+v", hit)
	}
	if longest == nil || longest.Ops != 4 {
		t.Fatalf("longest = %+v, want ops=4", longest)
	}
	if digest != PrefixDigest(in, 7) {
		t.Fatal("Resolve digest differs from PrefixDigest")
	}
	p.Insert(digest, p.AllocSlot(), 7, 4096, time.Millisecond)

	// Hit at 7: no parent reported, hit counted.
	hit, longest, _ = p.Resolve(in, 7)
	if hit == nil || hit.Ops != 7 || longest != nil {
		t.Fatalf("expected pure hit at 7, got hit=%+v longest=%+v", hit, longest)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}
