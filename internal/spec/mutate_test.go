package spec

import (
	"math/rand"
	"testing"

	"repro/internal/guest"
)

// TestGeneratedPayloadRespectsNodeMaxData checks "valid by construction" for
// a spec whose payload bound is below the mutator's own: every generated
// input and every mutant of it validates. Before randData took the node's
// bound, 967 of these 1000 generated inputs carried a payload over 16 bytes.
func TestGeneratedPayloadRespectsNodeMaxData(t *testing.T) {
	s := NewSpec("t")
	con := s.Edge("con")
	s.Node(NodeType{Name: "c", Kind: KindConnect, Outputs: []EdgeID{con}, Port: guest.Port{Proto: guest.TCP, Num: 21}})
	s.Node(NodeType{Name: "pkt", Kind: KindPacket, Borrows: []EdgeID{con}, HasData: true, MaxData: 16})
	m := NewMutator(s, rand.New(rand.NewSource(1)))
	for i := 0; i < 1000; i++ {
		in := m.Generate(0)
		if err := s.Validate(in); err != nil {
			t.Fatalf("generated input %d: %v", i, err)
		}
		if err := s.Validate(m.Mutate(in)); err != nil {
			t.Fatalf("mutant of generated input %d: %v", i, err)
		}
	}
}

// countingSource counts what the mutator draws from its source.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source64.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.Source64.Uint64()
}

// TestRandDataDrawsPerWord pins randData's cost as counts: an n-byte payload
// takes at most one source draw for its length and one per four bytes — two
// draws per byte before entropy was taken by the word — and one allocation.
func TestRandDataDrawsPerWord(t *testing.T) {
	src := &countingSource{Source64: rand.NewSource(1).(rand.Source64)}
	m := NewMutator(testSpec(), rand.New(src))
	for i := 0; i < 1000; i++ {
		src.draws = 0
		n := len(m.randData(nil, 0))
		if max := 1 + (n+3)/4; src.draws > max {
			t.Fatalf("call %d: %d source draws for %d bytes, want at most %d", i, src.draws, n, max)
		}
	}
	if got := testing.AllocsPerRun(1000, func() { m.randData(nil, 0) }); got != 1 {
		t.Errorf("%.0f allocations per payload, want 1", got)
	}
}

// TestRandDataDistribution checks the distribution randData documents: lane
// by lane exactly, then on a mebibyte of payloads at a fixed seed.
func TestRandDataDistribution(t *testing.T) {
	isInteresting := map[byte]bool{}
	for _, v := range interesting {
		isInteresting[v] = true
	}

	// Every 16-bit lane once: the 3·2¹⁴ that keep their low byte give every
	// byte value 192 times, the 2¹⁴ that pick give each interesting value
	// 2¹⁴/12 = 1365⅓ times, rounded either way.
	var lanes [256]int
	for w := uint64(0); w < 1<<16; w++ {
		lanes[laneByte(w)]++
	}
	for v, n := range lanes {
		if picked := n - 192; !isInteresting[byte(v)] && picked != 0 || isInteresting[byte(v)] && picked != 1365 && picked != 1366 {
			t.Errorf("byte %#02x comes from %d of the 65536 lanes", v, n)
		}
	}

	m := NewMutator(testSpec(), rand.New(rand.NewSource(1)))
	var seen [256]int
	lengths := make([]int, m.MaxData+1)
	total, calls, adjacent := 0, 0, 0
	for total < 1<<20 {
		b := m.randData(nil, 0)
		lengths[len(b)]++
		calls++
		total += len(b)
		for i, v := range b {
			seen[v]++
			if i > 0 && v == b[i-1] {
				adjacent++
			}
		}
	}

	// P(byte ∈ interesting) = 1/4 + 3/4·12/256.
	in, minIn, maxIn := 0, total, 0
	for _, v := range interesting {
		in += seen[v]
		minIn, maxIn = min(minIn, seen[v]), max(maxIn, seen[v])
	}
	if p := float64(in) / float64(total); p < 0.2852-0.002 || p > 0.2852+0.002 {
		t.Errorf("P(byte is an interesting value) = %.4f, want 0.2852 ± 0.002", p)
	}
	if float64(maxIn) > 1.05*float64(minIn) {
		t.Errorf("interesting values occur %d to %d times, more than 5%% apart", minIn, maxIn)
	}
	uniform := 0.75 / 256 * float64(total)
	for v, n := range seen {
		if !isInteresting[byte(v)] && (float64(n) < 0.9*uniform || float64(n) > 1.1*uniform) {
			t.Errorf("byte %#02x occurs %d times, want %.0f ± 10%%", v, n, uniform)
		}
	}
	// Lanes of one word are independent: two neighbours are equal as often
	// as two independent bytes of this distribution, Σp² = 0.00887.
	if p := float64(adjacent) / float64(total-calls); p < 0.9*0.00887 || p > 1.1*0.00887 {
		t.Errorf("P(byte equals its predecessor) = %.5f, want 0.00887 ± 10%%", p)
	}
	// Lengths are uniform on 1…MaxData: χ² over the 256 lengths has mean 255
	// and deviation 22.6.
	expect := float64(calls) / float64(m.MaxData)
	chi2 := 0.0
	for _, n := range lengths[1:] {
		chi2 += (float64(n) - expect) * (float64(n) - expect) / expect
	}
	if lengths[0] != 0 || chi2 > 255+5*22.6 {
		t.Errorf("lengths are not uniform on 1…%d: χ² = %.0f over %d payloads, %d empty", m.MaxData, chi2, calls, lengths[0])
	}
}
