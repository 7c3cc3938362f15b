package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 2, 3}, 2.5},
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if Quantile([]float64{7}, 0.25) != 7 || Quantile([]float64{3, 1, 2}, 0.5) != Median([]float64{3, 1, 2}) {
		t.Error("Quantile of one sample or at 0.5 wrong")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Std(xs); math.Abs(got-2.138) > 0.01 {
		t.Errorf("Std = %v, want ~2.138", got)
	}
	if Std([]float64{1}) != 0 {
		t.Error("Std of single sample should be 0")
	}
}

func TestMin(t *testing.T) {
	if got := Min([]float64{3, -1, 7, 2}); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Min(nil); !math.IsNaN(got) {
		t.Errorf("Min of no samples = %v, want NaN", got)
	}
}

func TestMannWhitneyClearlySeparated(t *testing.T) {
	a := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	p := MannWhitneyU(a, b)
	if p >= 0.001 {
		t.Fatalf("clearly separated samples: p = %v, want < 0.001", p)
	}
	if !Significant(a, b) {
		t.Fatal("should be significant")
	}
}

func TestMannWhitneyIdenticalDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		a := make([]float64, 10)
		b := make([]float64, 10)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		if Significant(a, b) {
			rejected++
		}
	}
	// Under the null, the rejection rate should be near 5%.
	if rejected > trials/5 {
		t.Fatalf("null rejection rate too high: %d/%d", rejected, trials)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	a := []float64{5, 5, 5}
	b := []float64{5, 5, 5}
	if p := MannWhitneyU(a, b); p != 1 {
		t.Fatalf("all-tied samples: p = %v, want 1", p)
	}
}

func TestMannWhitneySymmetric(t *testing.T) {
	a := []float64{1, 5, 3, 8, 2}
	b := []float64{4, 9, 2, 7, 6}
	if p1, p2 := MannWhitneyU(a, b), MannWhitneyU(b, a); math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("test should be symmetric: %v vs %v", p1, p2)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if p := MannWhitneyU(nil, []float64{1}); p != 1 {
		t.Fatalf("empty sample: p = %v, want 1", p)
	}
}

func TestVarghaDelaneyA12(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b []float64
		want float64
	}{
		{"identical", []float64{3, 1, 2}, []float64{1, 2, 3}, 0.5},
		{"all tied", []float64{5, 5}, []float64{5, 5, 5}, 0.5},
		{"a above", []float64{100, 101, 102}, []float64{1, 2}, 1},
		{"a below", []float64{1, 2}, []float64{100, 101, 102}, 0},
		// x=1 beats none of {2, 2, 4}; x=2 ties twice; x=3 beats both 2s: 3 of 9.
		{"mixed with ties", []float64{1, 2, 3}, []float64{2, 2, 4}, 3.0 / 9},
		// 10 beats nothing, 20 beats 15, 30 and 40 beat both: 5 of 8.
		{"mixed", []float64{10, 20, 30, 40}, []float64{15, 25}, 5.0 / 8},
	} {
		if got := VarghaDelaneyA12(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: A12 = %v, want %v", c.name, got, c.want)
		}
		if got := VarghaDelaneyA12(c.b, c.a); math.Abs(got-(1-c.want)) > 1e-12 {
			t.Errorf("%s: A12 with the samples swapped = %v, want %v", c.name, got, 1-c.want)
		}
	}
	if !math.IsNaN(VarghaDelaneyA12(nil, []float64{1})) {
		t.Error("A12 of an empty sample should be NaN")
	}
}
