package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mario"
	"repro/internal/stats"
)

// ---- Table 1: crashes found ----

// Table1Row is one target's crash findings per fuzzer.
type Table1Row struct {
	Target string
	// Found maps fuzzer -> crash summary ("-" none, "✓" found, "(✓)"
	// ASan-dependent, "*" internal OOM, "n/a" incompatible).
	Found map[FuzzerID]string
}

// Table1 reproduces the crash-discovery comparison.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	fuzzers := []FuzzerID{FAFLnet, FAFLnwe, FAFLpp, FNyxNone, FNyxBalanced, FNyxAggressive}
	grid, err := runGrid(cfg, fuzzers)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, tgt := range cfg.Targets {
		row := Table1Row{Target: tgt, Found: map[FuzzerID]string{}}
		any := false
		for _, fz := range fuzzers {
			cl := grid[tgt][fz]
			switch {
			case cl.incompatible():
				row.Found[fz] = "n/a"
			default:
				mark := "-"
				for _, r := range cl.results {
					for _, cr := range r.Crashes {
						switch {
						case cr.Kind == guest.CrashOOMInternal:
							mark = "*"
						case tgt == "dcmtk" && fz.IsNyx():
							mark = "(✓)" // found only because ASan was on
						default:
							mark = "✓"
						}
						any = true
					}
				}
				row.Found[fz] = mark
			}
		}
		if any {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable1 formats the rows like the paper's Table 1.
func RenderTable1(rows []Table1Row) string {
	fuzzers := []FuzzerID{FAFLnet, FAFLnwe, FAFLpp, FNyxNone, FNyxBalanced, FNyxAggressive}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "Target")
	for _, fz := range fuzzers {
		fmt.Fprintf(&b, " %16s", fz)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s", row.Target)
		for _, fz := range fuzzers {
			fmt.Fprintf(&b, " %16s", row.Found[fz])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- Table 2: median branch coverage ----

// Table2Row is one target's coverage comparison.
type Table2Row struct {
	Target       string
	AFLnetMedian float64
	Delta        map[FuzzerID]float64 // percent vs AFLnet
	Significant  map[FuzzerID]bool    // Mann-Whitney rho < 0.05
	Incompatible map[FuzzerID]bool
}

// Table2 reproduces the median-coverage table with significance tests.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	grid, err := runGrid(cfg, AllFuzzers())
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, tgt := range cfg.Targets {
		base := grid[tgt][FAFLnet]
		baseMed := stats.Median(base.coverages())
		row := Table2Row{
			Target: tgt, AFLnetMedian: baseMed,
			Delta:        map[FuzzerID]float64{},
			Significant:  map[FuzzerID]bool{},
			Incompatible: map[FuzzerID]bool{},
		}
		for _, fz := range AllFuzzers() {
			if fz == FAFLnet {
				continue
			}
			cl := grid[tgt][fz]
			if cl.incompatible() {
				row.Incompatible[fz] = true
				continue
			}
			med := stats.Median(cl.coverages())
			if baseMed > 0 {
				row.Delta[fz] = (med - baseMed) / baseMed * 100
			}
			row.Significant[fz] = stats.Significant(base.coverages(), cl.coverages())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 formats the coverage table; significant deltas get a '*'.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s", "Target", "AFLnet")
	for _, fz := range AllFuzzers()[1:] {
		fmt.Fprintf(&b, " %18s", fz)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s %10.1f", row.Target, row.AFLnetMedian)
		for _, fz := range AllFuzzers()[1:] {
			switch {
			case row.Incompatible[fz]:
				fmt.Fprintf(&b, " %18s", "n/a")
			default:
				mark := ""
				if row.Significant[fz] {
					mark = "*"
				}
				fmt.Fprintf(&b, " %17s%s", fmt.Sprintf("%+.1f%%", row.Delta[fz]), mark)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- Table 3: throughput ----

// Table3Row is one target's executions-per-second comparison.
type Table3Row struct {
	Target string
	Mean   map[FuzzerID]float64
	Std    map[FuzzerID]float64
	NA     map[FuzzerID]bool
}

// Table3 reproduces the throughput table.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	grid, err := runGrid(cfg, AllFuzzers())
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, tgt := range cfg.Targets {
		row := Table3Row{Target: tgt,
			Mean: map[FuzzerID]float64{}, Std: map[FuzzerID]float64{}, NA: map[FuzzerID]bool{}}
		for _, fz := range AllFuzzers() {
			cl := grid[tgt][fz]
			if cl.incompatible() {
				row.NA[fz] = true
				continue
			}
			row.Mean[fz] = stats.Mean(cl.epsSamples())
			row.Std[fz] = stats.Std(cl.epsSamples())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 formats the throughput table.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "Target")
	for _, fz := range AllFuzzers() {
		fmt.Fprintf(&b, " %20s", fz)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s", row.Target)
		for _, fz := range AllFuzzers() {
			if row.NA[fz] {
				fmt.Fprintf(&b, " %20s", "-")
				continue
			}
			fmt.Fprintf(&b, " %20s", fmt.Sprintf("%.1f ± %.1f", row.Mean[fz], row.Std[fz]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- Table 4: Super Mario time to solve ----

// Table4Row is one level's time-to-solve per fuzzer (median of reps);
// negative durations mean unsolved within the budget.
type Table4Row struct {
	Level  string
	Times  map[FuzzerID]time.Duration
	Solved map[FuzzerID]int // how many reps solved
}

// MarioFuzzers are Table 4's columns (Ijon replaces the AFL-family).
const FIjon FuzzerID = "ijon"

// MarioFuzzers returns Table 4's fuzzer columns.
func MarioFuzzers() []FuzzerID {
	return []FuzzerID{FIjon, FNyxNone, FNyxBalanced, FNyxAggressive}
}

// Table4 reproduces the Mario experiment on the given levels ("w-s"
// names; nil = a representative subset to keep default runs fast).
func Table4(cfg Config, levels []string) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	if levels == nil {
		levels = []string{"1-1", "1-4", "2-3", "4-4"}
	}
	var rows []Table4Row
	for _, lvl := range levels {
		var w, s int
		if _, err := fmt.Sscanf(lvl, "%d-%d", &w, &s); err != nil {
			return nil, fmt.Errorf("experiments: bad level %q", lvl)
		}
		row := Table4Row{Level: lvl, Times: map[FuzzerID]time.Duration{}, Solved: map[FuzzerID]int{}}
		for _, fz := range MarioFuzzers() {
			var times []float64
			solved := 0
			for rep := 0; rep < cfg.Reps; rep++ {
				d, ok, err := solveMario(w, s, fz, cfg.CampaignTime, cfg.Seed+int64(rep))
				if err != nil {
					return nil, err
				}
				if ok {
					solved++
					times = append(times, d.Seconds())
				}
			}
			row.Solved[fz] = solved
			if solved > 0 {
				row.Times[fz] = time.Duration(stats.Median(times) * float64(time.Second))
			} else {
				row.Times[fz] = -1
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// solveMario runs one fuzzer on one level until solved or the budget runs
// out, returning the virtual time to solve.
func solveMario(world, stage int, fz FuzzerID, budget time.Duration, seed int64) (time.Duration, bool, error) {
	inst, err := mario.Launch(world, stage)
	if err != nil {
		return 0, false, err
	}
	var exec core.Executor
	policy := core.PolicyNone
	switch fz {
	case FIjon:
		exec = mario.NewIjon(inst)
	case FNyxNone:
		exec = inst.Agent
	case FNyxBalanced:
		exec, policy = inst.Agent, core.PolicyBalanced
	case FNyxAggressive:
		exec, policy = inst.Agent, core.PolicyAggressive
	default:
		return 0, false, fmt.Errorf("experiments: fuzzer %q cannot play Mario", fz)
	}
	f := core.New(exec, inst.Spec, core.Options{
		Policy: policy,
		Seeds:  inst.Seeds(),
		Rand:   rand.New(rand.NewSource(seed)),
		Dict:   inst.Dict(),
	})
	start := f.Elapsed()
	for f.Elapsed()-start < budget {
		if err := f.Step(); err != nil {
			return 0, false, err
		}
		if len(f.Crashes) > 0 {
			return f.Crashes[0].FoundAt, true, nil
		}
	}
	return 0, false, nil
}

// RenderTable4 formats the Mario table.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "Level")
	for _, fz := range MarioFuzzers() {
		fmt.Fprintf(&b, " %20s", fz)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-6s", row.Level)
		for _, fz := range MarioFuzzers() {
			if row.Times[fz] < 0 {
				fmt.Fprintf(&b, " %20s", "-")
			} else {
				fmt.Fprintf(&b, " %16s (%d)", row.Times[fz].Round(time.Millisecond), row.Solved[fz])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- Table 5: time to equal coverage ----

// Table5Row is one target's time-to-AFLnet's-final-coverage speedups, each
// a median over the seeds.
type Table5Row struct {
	Target string
	// AFLnetFinal is the median over seeds of when AFLnet found its final
	// coverage.
	AFLnetFinal time.Duration
	// Speedup is, per fuzzer, the median over seeds of AFLnet's time to its
	// final coverage over the fuzzer's time to the same coverage, both
	// campaigns run from the same seed. A seed on which the fuzzer never
	// reached that coverage counts as a speedup of 0, so a median of 0 means
	// more than half never did.
	Speedup map[FuzzerID]float64
}

// Table5 derives the speedup factors from fresh campaigns.
func Table5(cfg Config) ([]Table5Row, error) {
	cfg = cfg.withDefaults()
	fuzzers := []FuzzerID{FAFLnet, FNyxNone, FNyxBalanced, FNyxAggressive}
	grid, err := runGrid(cfg, fuzzers)
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for _, tgt := range cfg.Targets {
		rows = append(rows, table5Row(tgt, grid[tgt], fuzzers[1:]))
	}
	return rows, nil
}

// table5Row computes one target's row from its cells: repetition i of every
// cell ran from the same seed, so each fuzzer's i-th campaign is timed
// against AFLnet's i-th.
func table5Row(tgt string, cells map[FuzzerID]*cell, fuzzers []FuzzerID) Table5Row {
	base := cells[FAFLnet].results
	finals := make([]float64, len(base))
	for i, r := range base {
		finals[i] = float64(max(reachedAt(r.CovLog, r.Coverage), 0))
	}
	row := Table5Row{Target: tgt, AFLnetFinal: time.Duration(stats.Median(finals)), Speedup: map[FuzzerID]float64{}}
	for _, fz := range fuzzers {
		speedups := make([]float64, len(base))
		for i, r := range cells[fz].results {
			switch tt := reachedAt(r.CovLog, base[i].Coverage); {
			case tt < 0:
				speedups[i] = 0 // never reached AFLnet's coverage
			case tt == 0:
				speedups[i] = finals[i] / float64(time.Millisecond)
			default:
				speedups[i] = finals[i] / float64(tt)
			}
		}
		row.Speedup[fz] = stats.Median(speedups)
	}
	return row
}

// reachedAt returns when a campaign's coverage log first reaches edges, or
// -1 if it never does.
func reachedAt(log []core.CoveragePoint, edges int) time.Duration {
	for _, p := range log {
		if p.Edges >= edges {
			return p.T
		}
	}
	return -1
}

// RenderTable5 formats the time-to-coverage table.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %18s", "Target", "AFLnet t(final)")
	for _, fz := range []FuzzerID{FNyxNone, FNyxBalanced, FNyxAggressive} {
		fmt.Fprintf(&b, " %18s", fz)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s %18s", row.Target, row.AFLnetFinal.Round(time.Millisecond))
		for _, fz := range []FuzzerID{FNyxNone, FNyxBalanced, FNyxAggressive} {
			if row.Speedup[fz] == 0 {
				fmt.Fprintf(&b, " %18s", "-")
			} else {
				fmt.Fprintf(&b, " %17.0fx", row.Speedup[fz])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
