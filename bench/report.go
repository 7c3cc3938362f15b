package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/stats"
)

// e2eSpec describes one end-to-end metric: its unit, which direction is
// better, and the share of the baseline's median it may worsen by before a
// change counts as a regression.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndSpecs is the single source of the end-to-end metric list;
// BENCHMARK.json's end_to_end is generated from it (-contract).
var endToEndSpecs = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_execs_per_s", "1/s", "higher", 0.25},
	{"wall_s_to_ref_edges", "s", "lower", 0.25},
	{"edges", "count", "higher", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.10},
	{"checkpoint_ms_p50", "ms", "lower", 0.25},
	{"checkpoint_ms_p75", "ms", "lower", 0.25},
	{"resume_ms_p50", "ms", "lower", 0.25},
	{"resume_ms_p75", "ms", "lower", 0.25},
}

// contract is the shape of BENCHMARK.json.
type contract struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []e2eSpec   `json:"end_to_end"`
	PerLayer   []layerSpec `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the wall budget the driver passes as --seconds.
const runSeconds = 18

func buildContract(ws []*workload) contract {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpecs,
	}
	for _, w := range ws {
		c.Workloads = append(c.Workloads, nameWhy{w.Name, w.Why})
	}
	for _, s := range perLayerSpecs {
		c.PerLayer = append(c.PerLayer, layerSpec{s[0], s[1], s[2]})
	}
	return c
}

// resultsFile is what a suite run writes: one or more sets, each holding
// one result per workload.
type resultsFile struct {
	Seed int64       `json:"seed"`
	Reps int         `json:"reps"`
	Sets [][]*result `json:"sets"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printResult prints every metric of one workload by name, with its unit.
func printResult(out io.Writer, r *result) {
	fmt.Fprintf(out, "\n== %s  (seed %d, %d reps, GOMAXPROCS %d, nproc %d, %s)\n   %s\n",
		r.Workload, r.Seed, r.Reps, r.GOMAXPROCS, r.NProc, r.GoVersion, r.Why)
	if r.Oversubscribed {
		fmt.Fprintln(out, "   OVERSUBSCRIBED: more workers than cores; do not quote these numbers")
	}
	for _, s := range endToEndSpecs {
		m := r.EndToEnd[s.Name]
		fmt.Fprintf(out, "  %-34s %14.4f %-6s (%s is better, bound %.0f%%)\n", s.Name, m.Value, m.Unit, s.Better, 100*s.Bound)
	}
	fmt.Fprintf(out, "  per rep: raw wall s %.3f   steal-free s %.3f   reference s %.3f\n", r.RepWallS, r.RepOnCPUS, r.RepQuietS)
	fmt.Fprintf(out, "  per rep: host steal share %.2f   host slowness %.2f\n", r.RepStealShare, r.RepSlowness)
	fmt.Fprintf(out, "  per rep execs/s: %.0f   median of reps: %.0f   merged: %.0f\n",
		r.RepExecsPerS, r.MedianRepExecsPS, r.EndToEnd["wall_execs_per_s"].Value)
	fmt.Fprintf(out, "  modelled %.0f execs/virtual-s beside measured %.0f execs/wall-s (%d execs in %.2f virtual s)\n",
		r.VirtExecsPerS, r.EndToEnd["wall_execs_per_s"].Value, r.Execs, r.VirtElapsedS)
	fmt.Fprintf(out, "  checkpoint/resume percentiles over %d cycles (highest with ten samples beyond it: p%d)\n",
		r.CheckpointSamples, r.TopPercentile)
	fmt.Fprintf(out, "  ops_attempted %d  ops_failed %d\n", r.Ops.Attempted, r.Ops.Failed)
	for _, f := range r.Ops.Failures {
		fmt.Fprintln(out, "  FAILED:", f)
	}
	if len(r.PerLayer) == 0 {
		return
	}
	for _, s := range perLayerSpecs {
		m := r.PerLayer[s[0]]
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", s[0], m.Value, m.Unit)
	}
	// The replay stage's split of the two self times the spans cannot see
	// into: estimated parts, the span-measured whole, and what is left.
	v := func(name string) float64 { return r.PerLayer[name].Value }
	fmt.Fprintf(out, "  core.step self %.0f ns/exec = spec %.0f + coverage %.0f + snappool %.0f (replay estimates) + %.0f unattributed\n",
		v("core.step_self_ns_per_exec"), v("spec.est_ns_per_exec"), v("coverage.est_ns_per_exec"),
		v("snappool.est_ns_per_exec"), v("core.unattributed_ns_per_exec"))
	fmt.Fprintf(out, "  netemu self %.0f ns/exec = guest kernel %.0f (replay estimate) + %.0f interpreter and residual\n",
		v("netemu.self_ns_per_exec"), v("guest.est_ns_per_exec"), v("netemu.interp_ns_per_exec"))
}

// spreadOf is the run-to-run spread of xs as a share of their median: the
// interquartile distance with four or more values, the range with fewer.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := stats.Median(xs)
	if med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = s[len(s)/4], s[(3*len(s))/4]
	}
	return (hi - lo) / med
}

// compare applies the end-to-end bounds to candidate b against baseline a,
// one row per workload and metric, and returns how many rows regressed. A
// row whose run-to-run spread is wider than its bound cannot be resolved:
// it is reported as such unless the change is beyond the spread as well.
func compare(out io.Writer, a, b *resultsFile) (regressed int) {
	// values returns the metric's value in every set of f, and what to
	// take its spread over: those values, or with a single set the
	// repetitions' rates, the only spread there is.
	values := func(f *resultsFile, workload, name string) (xs, spread []float64) {
		for _, set := range f.Sets {
			for _, r := range set {
				if r.Workload == workload {
					xs = append(xs, r.EndToEnd[name].Value)
					if name == "wall_execs_per_s" && len(f.Sets) == 1 {
						return xs, r.RepExecsPerS
					}
				}
			}
		}
		return xs, xs
	}
	fmt.Fprintf(out, "%-10s %-22s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "spread", "verdict")
	for _, r := range a.Sets[0] {
		for _, s := range endToEndSpecs {
			as, aSpread := values(a, r.Workload, s.Name)
			bs, bSpread := values(b, r.Workload, s.Name)
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			av, bv := stats.Median(as), stats.Median(bs)
			if av == 0 {
				continue
			}
			worse := (bv - av) / av
			if s.Better == "higher" {
				worse = -worse
			}
			spread := max(spreadOf(aSpread), spreadOf(bSpread))
			verdict := "ok"
			switch {
			case worse > s.Bound && worse > spread:
				verdict = "REGRESSED"
				regressed++
			case worse > s.Bound, spread > s.Bound:
				verdict = "unresolved (spread wider than bound)"
			}
			fmt.Fprintf(out, "%-10s %-22s %14.4f %14.4f %8.1f%% %6.0f%% %7.1f%%  %s\n",
				r.Workload, s.Name, av, bv, 100*worse, 100*s.Bound, 100*spread, verdict)
		}
	}
	return regressed
}

// exactAgreement checks what two sets of the same commit must repeat on
// seeded workloads: execs and edges exactly, and the allocation counts to
// within 1% (fmt's and the engine's sync.Pools are emptied by every
// collection and refilled by fresh allocations, so the counts follow the
// collector's timing in the last digits).
func exactAgreement(out io.Writer, ws []*workload, a, b []*result) (mismatches int) {
	for i, w := range ws {
		if !w.seeded() || i >= len(a) || i >= len(b) {
			continue
		}
		for _, p := range []struct {
			name string
			a, b float64
			tol  float64
		}{
			{"execs", float64(a[i].Execs), float64(b[i].Execs), 0},
			{"edges", a[i].EndToEnd["edges"].Value, b[i].EndToEnd["edges"].Value, 0},
			{"core.allocs_per_exec", a[i].PerLayer["core.allocs_per_exec"].Value, b[i].PerLayer["core.allocs_per_exec"].Value, 0.01},
			{"core.alloc_bytes_per_exec", a[i].PerLayer["core.alloc_bytes_per_exec"].Value, b[i].PerLayer["core.alloc_bytes_per_exec"].Value, 0.01},
		} {
			if math.Abs(p.a-p.b) > p.tol*math.Abs(p.a) {
				mismatches++
				fmt.Fprintf(out, "%s: %s differs between the two sets: %v vs %v\n", w.Name, p.name, p.a, p.b)
			}
		}
	}
	return mismatches
}
