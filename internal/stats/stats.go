// Package stats provides the statistics the paper's evaluation methodology
// requires (§5.1, following Klees et al.): medians across repetitions,
// mean/standard deviation for throughput tables, the two-sided
// Mann-Whitney U test used to bold significant differences in Table 2, and
// the Vargha–Delaney Â12 effect size that goes beside it.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs (NaN for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-quantile of xs (0 <= q <= 1), interpolating
// linearly between the order statistics around (n-1)·q — so Quantile(xs,
// 0.5) is the median and 0.25/0.75 the quartiles (NaN for empty input).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * q
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the minimum of xs (NaN for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// MannWhitneyU performs a two-sided Mann-Whitney U test on samples a and b
// and returns the p-value, using the normal approximation with tie
// correction and continuity correction — the standard procedure for the
// 10-repetition samples fuzzing evaluations produce.
func MannWhitneyU(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, x := range a {
		all = append(all, obs{x, 0})
	}
	for _, x := range b {
		all = append(all, obs{x, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks, accumulating tie correction.
	ranks := make([]float64, len(all))
	tieCorrection := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}

	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	u2 := float64(n1)*float64(n2) - u1
	u := math.Min(u1, u2)

	mu := float64(n1) * float64(n2) / 2
	nTot := float64(n1 + n2)
	sigma2 := float64(n1) * float64(n2) / 12 * (nTot + 1 - tieCorrection/(nTot*(nTot-1)))
	if sigma2 <= 0 {
		return 1 // all observations tied
	}
	z := (u - mu + 0.5) / math.Sqrt(sigma2) // continuity correction
	// Two-sided p-value from the standard normal CDF.
	p := 2 * stdNormCDF(z)
	if p > 1 {
		p = 1
	}
	return p
}

// stdNormCDF is Φ(z) for z <= 0 (the test always passes the smaller U, so
// z is non-positive up to the continuity correction).
func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// VarghaDelaneyA12 returns the Vargha–Delaney Â12 effect size of a over b:
// the probability that a value drawn from a is larger than one drawn from b,
// ties counting half (0.5: no effect; 1 or 0: every value of a above or below
// every value of b). It is NaN when either sample is empty.
func VarghaDelaneyA12(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	wins := 0.0
	for _, x := range a {
		for _, y := range b {
			switch {
			case x > y:
				wins++
			case x == y:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(a)*len(b))
}

// Significant reports whether the difference between a and b is significant
// at the paper's ρ < 0.05 level.
func Significant(a, b []float64) bool { return MannWhitneyU(a, b) < 0.05 }
