package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// timed is one interval on the calling thread's clock and the same in
// reference time (probe.go).
type timed struct{ cpu, ref time.Duration }

// sliceSample is what one timed slice of one repetition measured. A slice
// is a fixed span of virtual time, so for a seeded workload slice i does
// the same work in every repetition and only the times differ.
type sliceSample struct {
	// Wall is the raw wall time. OnCPU is the wall time with host steal
	// taken out (clock.go): the thread clock for work on the benchmark's own
	// goroutine, steal-scaled wall for a campaign's fanned-out RunFor. Quiet
	// is OnCPU over the host's slowness around the slice (probe.go): the
	// time the reference host would have read. Every estimate is made on
	// Quiet; the other two are kept beside it.
	Wall, OnCPU, Quiet time.Duration
	Execs              uint64
	Edges              int // coverage at the end of the slice
	// Checkpoint and Resume are the parts spent in CheckpointTo and
	// ResumeFrom (zero on workloads that do not checkpoint per slice).
	Checkpoint, Resume timed
	// fanned is the raw wall of the slice's campaign RunFor and slow the
	// host's slowness around it; they are folded into OnCPU and Quiet once
	// the repetition's steal share is known.
	fanned time.Duration
	slow   float64
}

// merged is several repetitions of one slice schedule folded into one.
type merged struct {
	// Cost is the per-slice cost per exec that stands for all repetitions;
	// Weight is the slice's mean execs over repetitions (identical in every
	// repetition for a seeded workload).
	Cost   []float64
	Weight []float64
	Edges  []int // per slice, from the last repetition
}

// minMerge folds repetitions slice by slice: a slice costs what its
// cheapest repetition paid per exec. It suits work timed on the thread
// clock: what that clock and the probe leave — a burst between two probes,
// GC timing — only ever adds, hits different slices in different
// repetitions, and the minimum drops it; a slowdown would have to cover the
// same slice in every repetition to move the result.
func minMerge(reps [][]sliceSample) merged { return merge(reps, stats.Min) }

// medianMerge keeps each slice's median cost per exec. It suits a
// campaign's fanned-out RunFor, whose steal correction is the repetition's
// average: a slice the host spared reads too cheap and one it hit too dear,
// and the minimum would keep the first kind.
func medianMerge(reps [][]sliceSample) merged { return merge(reps, stats.Median) }

func merge(reps [][]sliceSample, pick func(costs []float64) float64) merged {
	n := len(reps[0])
	m := merged{Cost: make([]float64, n), Weight: make([]float64, n), Edges: make([]int, n)}
	for i := 0; i < n; i++ {
		var execs float64
		var costs []float64
		for _, r := range reps {
			s := r[i]
			execs += float64(s.Execs)
			if s.Execs > 0 {
				costs = append(costs, float64(s.Quiet)/float64(s.Execs))
			}
		}
		if len(costs) > 0 {
			m.Cost[i] = pick(costs)
		}
		m.Weight[i] = execs / float64(len(reps))
		m.Edges[i] = reps[len(reps)-1][i].Edges
	}
	return m
}

// wall returns the merged wall time of slices [0, upto), in seconds.
func (m merged) wall(upto int) float64 {
	var ns float64
	for i := 0; i < upto; i++ {
		ns += m.Cost[i] * m.Weight[i]
	}
	return ns / 1e9
}

// execsPerSecond is the exec-weighted merged throughput: for a seeded
// workload exactly execs / Σ_slices min_reps(wall).
func (m merged) execsPerSecond() float64 {
	var execs float64
	for _, w := range m.Weight {
		execs += w
	}
	if w := m.wall(len(m.Cost)); w > 0 {
		return execs / w
	}
	return 0
}

// wallToEdges returns the merged wall seconds until coverage first reached
// ref, interpolating linearly in edges inside the slice that crossed it.
// start is the coverage before the first slice. ok is false if ref was
// never reached.
func (m merged) wallToEdges(start, ref int) (seconds float64, ok bool) {
	prev := start
	for i, e := range m.Edges {
		if e >= ref {
			frac := 1.0
			if e > prev && ref > prev {
				frac = float64(ref-prev) / float64(e-prev)
			} else if ref <= prev {
				frac = 0
			}
			return m.wall(i) + frac*m.Cost[i]*m.Weight[i]/1e9, true
		}
		prev = e
	}
	return 0, false
}

// minPerIndex returns, for each index, the minimum over repetitions of
// pick(slice) in reference time — the min-merge of a per-cycle latency.
func minPerIndex(reps [][]sliceSample, pick func(sliceSample) timed) []time.Duration {
	out := make([]time.Duration, len(reps[0]))
	for i := range out {
		out[i] = pick(reps[0][i]).ref
		for _, r := range reps[1:] {
			out[i] = min(out[i], pick(r[i]).ref)
		}
	}
	return out
}

// topPercentile is the highest reportable percentile of n samples: the
// highest multiple of 5 (at least 50, at most 99) that still has ten
// samples beyond it. With fewer than 20 samples only the median stands.
func topPercentile(n int) int {
	p := 50
	for q := 55; q <= 95; q += 5 {
		if float64(n)*float64(100-q)/100 >= 10 {
			p = q
		}
	}
	if float64(n)/100 >= 10 {
		p = 99
	}
	return p
}

// percentile returns the p-th percentile (nearest rank) of ds.
func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
