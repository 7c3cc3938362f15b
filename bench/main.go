// Command bench is the repository's benchmark: wall-clock execs/s, coverage
// per wall second, memory and checkpoint latency on four workloads, with a
// per-layer trace taken from outside the engine. See README.md.
//
//	go run ./bench                       all workloads: -reps untraced repetitions, then a traced run
//	go run ./bench -workload ftp-snap    one workload
//	go run ./bench -smoke                every workload at 1 virtual second, checks on
//	go run ./bench -aa                   two full sets back to back, checked for agreement
//	go run ./bench -compare a.json b.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's protocol)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const outDir = "bench/out"

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all)")
		seed     = flag.Int64("seed", 1, "campaign RNG seed (core.Options.Rand / campaign.Config.Seed)")
		reps     = flag.Int("reps", 5, "untraced repetitions per workload, run round-robin across workloads")
		seconds  = flag.Int("seconds", 0, "driver protocol: measure one workload for about this many wall seconds, print one JSON line")
		trace    = flag.Int("trace", 0, "driver protocol: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		smoke    = flag.Bool("smoke", false, "every workload at 1 virtual second and 1 repetition, checks on")
		aa       = flag.Bool("aa", false, "run two full sets back to back and check that they agree")
		cmp      = flag.Bool("compare", false, "compare two result files: bench -compare baseline.json candidate.json")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the metric and workload tables define it")
	)
	flag.Parse()
	runtime.LockOSThread() // onCPU reads this goroutine's thread clock from start to end
	ws, err := loadWorkloads()
	if err != nil {
		fatal(err)
	}
	switch {
	case *contract:
		data, _ := json.MarshalIndent(buildContract(ws), "", "  ")
		fmt.Println(string(data))
		return
	case *cmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("bench: -compare needs two result files"))
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(os.Stdout, a, b) > 0 {
			os.Exit(1)
		}
		return
	}
	if *name != "" {
		w := find(ws, *name)
		if w == nil {
			fatal(fmt.Errorf("bench: unknown workload %q, want one of %v", *name, names(ws)))
		}
		ws = []*workload{w}
	}
	if *seconds > 0 {
		if len(ws) != 1 {
			fatal(fmt.Errorf("bench: -seconds needs -workload, one of %v", names(ws)))
		}
		os.Exit(driverRun(ws[0], *seed, time.Duration(*seconds)*time.Second, *trace != 0))
	}
	if *smoke {
		for i, w := range ws {
			ws[i] = w.scaled(time.Second)
		}
		*reps = 1
	} else if *reps < minReps {
		fatal(fmt.Errorf("bench: -reps must be at least %d", minReps))
	}

	pairs := tracedPairs
	if *smoke {
		pairs = 1
	}
	set, failed := suite(ws, *seed, *reps, pairs)
	file := resultsFile{Seed: *seed, Reps: *reps, Sets: [][]*result{set}}
	if *aa {
		fmt.Println("\n#### second set")
		set2, failed2 := suite(ws, *seed, *reps, pairs)
		failed += failed2
		file.Sets = append(file.Sets, set2)
		fmt.Println("\n#### agreement of the two sets")
		failed += compare(os.Stdout, &resultsFile{Sets: [][]*result{set}}, &resultsFile{Sets: [][]*result{set2}})
		failed += exactAgreement(os.Stdout, ws, set, set2)
	}
	path := filepath.Join(outDir, "results.json")
	writeJSON(path, file)
	fmt.Printf("\nwrote %s and %s/trace-<workload>.json\n", path, outDir)
	if failed > 0 {
		fmt.Printf("FAILED: %d failed operations or disagreements\n", failed)
		os.Exit(1)
	}
}

func find(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func names(ws []*workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// suite runs one full set: reps untraced repetitions of every workload,
// round-robin so a slow spell of the host lands on different workloads and
// slices each time round, then one traced run (pairs untraced/traced
// repetition pairs) per workload. It prints every
// metric and returns the results and the number of failed operations.
func suite(ws []*workload, seed int64, reps, pairs int) ([]*result, int) {
	sessions := make([]*session, len(ws))
	for i, w := range ws {
		s, err := newSession(w, seed)
		if err != nil {
			fatal(err)
		}
		sessions[i] = s
	}
	results := make([]*result, len(ws))
	for r := 0; r < reps; r++ {
		for i, s := range sessions {
			d, err := s.rep()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d: %.2fs\n", s.w.Name, r+1, reps, d.Seconds())
			if r == reps-1 {
				if results[i], err = s.finish(); err != nil {
					fatal(err)
				}
			}
		}
	}
	failed := 0
	for i, res := range results {
		layers, ops, err := tracedRun(ws[i], seed, pairs)
		if err != nil {
			fatal(err)
		}
		res.PerLayer = layers
		res.Ops.merge(ops)
		printResult(os.Stdout, res)
		failed += res.Ops.Failed
	}
	return results, failed
}

// driverRun is one run of the driver's protocol: one workload, one seed, a
// wall budget, and as the last line of output one JSON object holding the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func driverRun(w *workload, seed int64, budget time.Duration, traced bool) int {
	var (
		metrics map[string]metric
		ops     opCount
	)
	if traced {
		var err error
		if metrics, ops, err = tracedRun(w, seed, tracedPairs); err != nil {
			fatal(err)
		}
	} else {
		s, err := newSession(w, seed)
		if err != nil {
			fatal(err)
		}
		// The budget buys repetitions at the workload's pinned price, not at
		// what they cost today: the per-slice minimum falls as repetitions
		// are added, so a count that followed the host's speed would tie
		// the result to it. The driver's time limit, though, is on the wall
		// clock, and a spell of heavy steal triples a run: once the budget
		// is spent no repetition beyond the third is started, and past twice
		// the budget the checkpoint tail starts no further pass. A quiet
		// host spends about 0.7 of the budget on the pinned count.
		start := now()
		s.tailUntil = start.Add(2 * budget)
		for n := max(minReps, int(budget/time.Duration(w.RepWall))); len(s.reps) < n; {
			if len(s.reps) >= minReps && now().Sub(start) >= budget {
				fmt.Fprintf(os.Stderr, "bench: %s: budget spent after %d of %d repetitions\n", w.Name, len(s.reps), n)
				break
			}
			d, err := s.rep()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d: %.2fs\n", w.Name, len(s.reps), n, d.Seconds())
		}
		res, err := s.finish()
		if err != nil {
			fatal(err)
		}
		printResult(os.Stderr, res)
		writeJSON(filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d.json", w.Name, seed)), res)
		metrics, ops = res.EndToEnd, res.Ops
	}
	for _, f := range ops.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{ops.Failed == 0, ops.Attempted, ops.Failed, metrics})
	fmt.Println(string(line))
	if ops.Failed > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
