// Command nyx-bench regenerates the paper's tables and figures from the
// reproduction. README.md's sections "The corpus scheduler", "The snapshot
// pool" and "The parallel campaign subsystem" describe its ablations and the
// scaling table.
//
// Usage:
//
//	nyx-bench -table 2 -time 30s -reps 3
//	nyx-bench -figure 6
//	nyx-bench -ablation all
//	nyx-bench -campaign 1,2,4,8
//	nyx-bench -all
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
)

// ablations are the names -ablation accepts.
var ablations = []string{"dirty", "device", "reuse", "remirror", "sched", "snappool", "all"}

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table N (1-5)")
		figure   = flag.Int("figure", 0, "regenerate figure N (5 or 6; 7 = figure 5 with all fuzzers)")
		ablation = flag.String("ablation", "", "run ablation: "+strings.Join(ablations, " | "))
		all      = flag.Bool("all", false, "regenerate everything")
		dur      = flag.Duration("time", 30*time.Second, "virtual campaign duration (= 24 scaled hours)")
		reps     = flag.Int("reps", 3, "repetitions per cell")
		seed     = flag.Int64("seed", 1, "base RNG seed")
		tgts     = flag.String("targets", "", "comma-separated target subset (default: all 13)")
		levels   = flag.String("levels", "", "comma-separated Mario levels for table 4 (default subset)")
		camp     = flag.String("campaign", "", "run the parallel-scaling campaign at these worker counts (e.g. 1,2,4,8 or 16,32,64)")
		campMode = flag.String("sync-mode", "async", "broker sync for -campaign runs: async (barrier-free, one exchange at a time) | lockstep (deterministic rounds)")
		power    = flag.String("power", "off", "power schedule for -campaign runs: off | coe (the sched ablation runs both)")
		snapbud  = flag.Int64("snapbudget", campaign.DefaultSnapBudget, "snapshot-pool byte budget for -ablation snappool")
	)
	flag.Parse()
	if err := checkArgs(*ablation, *reps); err != nil {
		fmt.Fprintf(os.Stderr, "nyx-bench: %v\n", err)
		os.Exit(2)
	}

	pw, err := core.ParsePower(*power)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := experiments.Config{CampaignTime: *dur, Reps: *reps, Seed: *seed, Power: pw}
	if *tgts != "" {
		cfg.Targets = strings.Split(*tgts, ",")
	}
	var lvls []string
	if *levels != "" {
		lvls = strings.Split(*levels, ",")
	}

	ran := false
	run := func(n int, f func() error) {
		if *all || *table == n {
			ran = true
			if err := f(); err != nil {
				fatalf("table %d: %v", n, err)
			}
		}
	}

	run(1, func() error {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1: crashes found ==")
		fmt.Println(experiments.RenderTable1(rows))
		return nil
	})
	run(2, func() error {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Table 2: median branch coverage vs AFLnet (* = significant) ==")
		fmt.Println(experiments.RenderTable2(rows))
		return nil
	})
	run(3, func() error {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Table 3: test throughput (execs/virtual-second) ==")
		fmt.Println(experiments.RenderTable3(rows))
		return nil
	})
	run(4, func() error {
		rows, err := experiments.Table4(cfg, lvls)
		if err != nil {
			return err
		}
		fmt.Println("== Table 4: Super Mario time to solve (virtual) ==")
		fmt.Println(experiments.RenderTable4(rows))
		return nil
	})
	run(5, func() error {
		rows, err := experiments.Table5(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Table 5: time to equal AFLnet's final coverage ==")
		fmt.Println(experiments.RenderTable5(rows))
		return nil
	})

	if *all || *figure == 5 || *figure == 7 {
		ran = true
		var fuzzers []experiments.FuzzerID
		if *figure == 7 {
			fuzzers = experiments.AllFuzzers()
		}
		series, err := experiments.Figure5(cfg, fuzzers)
		if err != nil {
			fatalf("figure 5: %v", err)
		}
		fmt.Println("== Figure 5/7: median branch coverage over time (CSV) ==")
		fmt.Println(experiments.RenderFigure5CSV(series))
	}
	if *all || *figure == 6 {
		ran = true
		fmt.Println("== Figure 6: incremental snapshot create/load throughput (wall clock, CSV) ==")
		fmt.Println(experiments.RenderFigure6CSV(experiments.Figure6(nil, nil, 0)))

		sc, err := experiments.Scalability(80, 0, 0)
		if err != nil {
			fatalf("scalability: %v", err)
		}
		fmt.Printf("== §5.3 scalability: %d instances use %.2fx the memory of one ==\n\n",
			sc.Instances, sc.Ratio)
	}

	if *camp != "" || *all {
		ran = true
		var counts []int
		for _, s := range strings.Split(*camp, ",") {
			if s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				fatalf("bad -campaign worker count %q", s)
			}
			counts = append(counts, n)
		}
		mode, err := campaign.ParseSyncMode(*campMode)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.SyncMode = mode
		rows, err := experiments.ParallelScaling(cfg, counts)
		if err != nil {
			fatalf("campaign scaling: %v", err)
		}
		fmt.Println("== Parallel campaign scaling (aggregated coverage + throughput + broker sync cost) ==")
		fmt.Println(experiments.RenderParallelScaling(rows))
		cfg.SyncMode = campaign.SyncLockstep // other experiments stay deterministic
	}

	abl := *ablation
	if *all {
		abl = "all"
	}
	if abl != "" {
		ran = true
		if abl == "dirty" || abl == "all" {
			fmt.Println(experiments.RenderAblation("== Ablation: dirty-page discovery ==", experiments.AblationDirtyTracking()))
		}
		if abl == "device" || abl == "all" {
			fmt.Println(experiments.RenderAblation("== Ablation: device reset mechanism ==", experiments.AblationDeviceReset()))
		}
		if abl == "remirror" || abl == "all" {
			fmt.Println(experiments.RenderAblation("== Ablation: re-mirror interval ==", experiments.AblationReMirror(nil)))
		}
		if abl == "reuse" || abl == "all" {
			rs, err := experiments.AblationSnapshotReuse(nil, 0, *seed)
			if err != nil {
				fatalf("ablation reuse: %v", err)
			}
			fmt.Println(experiments.RenderAblation("== Ablation: snapshot reuse count ==", rs))
		}
		if abl == "sched" || abl == "all" {
			tgt := ""
			if len(cfg.Targets) > 0 {
				tgt = cfg.Targets[0]
			}
			a, err := experiments.AblationScheduling(cfg, tgt)
			if err != nil {
				fatalf("ablation sched: %v", err)
			}
			fmt.Println("== Ablation: queue scheduling (round-robin vs AFL-style vs AFL + coe power schedule) ==")
			fmt.Println(experiments.RenderSchedAblation(a))
		}
		if abl == "snappool" || abl == "all" {
			rs, err := experiments.AblationSnapshotPool(cfg.Targets, *dur, *seed, *snapbud)
			if err != nil {
				fatalf("ablation snappool: %v", err)
			}
			fmt.Println(experiments.RenderAblation("== Ablation: snapshot pool (prefix-keyed slots vs single slot vs none) ==", rs))
		}
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nyx-bench: "+format+"\n", args...)
	os.Exit(1)
}

// checkArgs rejects the flag values that would otherwise run nothing or run
// empty cells: an -ablation name that is not one of ablations, and fewer
// than one repetition per cell.
func checkArgs(ablation string, reps int) error {
	if ablation != "" && !slices.Contains(ablations, ablation) {
		return fmt.Errorf("unknown -ablation %q (want one of %s)", ablation, strings.Join(ablations, ", "))
	}
	if reps < 1 {
		return fmt.Errorf("-reps %d: want at least 1", reps)
	}
	return nil
}
