// Package experiments regenerates every table and figure of the Nyx-Net
// paper's evaluation (§5) from the reproduction's components. Campaigns run
// on the deterministic virtual clock, so results are reproducible given a
// seed; wall-clock time stays laptop-scale.
//
// Scaling: the paper's campaigns are 10 repetitions x 24 real hours on a
// 52-core Xeon. Here a campaign lasts Config.CampaignTime of *virtual*
// time (default 30s) and repeats Config.Reps times (default 3). The time
// axis of coverage plots is reported in "scaled hours": one scaled hour =
// CampaignTime/24. Relative throughput, coverage ordering and crossover
// shapes are preserved; absolute branch counts are the simulated targets'.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/targets"
)

// FuzzerID names a fuzzer configuration as the paper's tables do.
type FuzzerID string

// The seven fuzzers of Tables 2 and 3.
const (
	FAFLnet        FuzzerID = "aflnet"
	FAFLnetNoState FuzzerID = "aflnet-no-state"
	FAFLnwe        FuzzerID = "aflnwe"
	FAFLpp         FuzzerID = "aflpp"
	FNyxNone       FuzzerID = "nyxnet-none"
	FNyxBalanced   FuzzerID = "nyxnet-balanced"
	FNyxAggressive FuzzerID = "nyxnet-aggressive"
)

// AllFuzzers returns the fuzzers in table column order.
func AllFuzzers() []FuzzerID {
	return []FuzzerID{FAFLnet, FAFLnetNoState, FAFLnwe, FAFLpp, FNyxNone, FNyxBalanced, FNyxAggressive}
}

// IsNyx reports whether the fuzzer is a Nyx-Net policy.
func (f FuzzerID) IsNyx() bool {
	return f == FNyxNone || f == FNyxBalanced || f == FNyxAggressive
}

// Config controls experiment scale.
type Config struct {
	// CampaignTime is the virtual duration of one campaign ("24 scaled
	// hours"). Default 30s.
	CampaignTime time.Duration
	// Reps is the number of repetitions per cell (paper: 10). Default 3.
	Reps int
	// Seed is the base RNG seed; repetition i uses Seed+i.
	Seed int64
	// Targets overrides the target list (default: the ProFuzzBench 13).
	Targets []string
	// Power is the power schedule campaign-style experiments (the
	// parallel-scaling table) layer on the AFL scheduler. Default
	// core.PowerOff.
	Power core.Power
	// SyncMode selects the corpus broker's sync discipline for
	// campaign-style experiments. Default campaign.SyncLockstep
	// (deterministic rows).
	SyncMode campaign.SyncMode
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CampaignTime == 0 {
		c.CampaignTime = 30 * time.Second
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Targets) == 0 {
		c.Targets = targets.ProFuzzBench()
	}
	return c
}

// CampaignResult is one campaign's outcome.
type CampaignResult struct {
	Target string
	Fuzzer FuzzerID
	Seed   int64
	// Incompatible marks the n/a cells (AFL++/desock on targets it
	// cannot run).
	Incompatible bool

	Coverage int
	Execs    uint64
	EPS      float64
	Crashes  []core.Crash
	CovLog   []core.CoveragePoint
}

// RunCampaign runs one (target, fuzzer, seed) campaign for the given
// virtual duration. Asan controls sanitizer instrumentation of the target.
func RunCampaign(target string, fz FuzzerID, dur time.Duration, seed int64, asan bool) (*CampaignResult, error) {
	inst, err := targets.Launch(target, targets.LaunchConfig{Asan: asan})
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{Target: target, Fuzzer: fz, Seed: seed}

	var exec core.Executor
	policy := core.PolicyNone
	switch fz {
	case FNyxNone:
		exec = inst.Agent
	case FNyxBalanced:
		exec, policy = inst.Agent, core.PolicyBalanced
	case FNyxAggressive:
		exec, policy = inst.Agent, core.PolicyAggressive
	case FAFLnet, FAFLnetNoState, FAFLnwe, FAFLpp:
		kind := map[FuzzerID]baseline.Kind{
			FAFLnet: baseline.AFLnet, FAFLnetNoState: baseline.AFLnetNoState,
			FAFLnwe: baseline.AFLnwe, FAFLpp: baseline.AFLppDesock,
		}[fz]
		be, berr := baseline.NewExecutor(kind, inst)
		if berr != nil {
			res.Incompatible = true
			return res, nil
		}
		exec = be
	default:
		return nil, fmt.Errorf("experiments: unknown fuzzer %q", fz)
	}

	f := core.New(exec, inst.Spec, core.Options{
		Policy: policy,
		Seeds:  inst.Seeds(),
		Rand:   rand.New(rand.NewSource(seed)),
		Dict:   inst.Info.Dict,
	})
	if err := f.RunFor(dur); err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", target, fz, err)
	}
	res.Coverage = f.Coverage()
	res.Execs = f.Execs()
	res.EPS = f.ExecsPerSecond()
	res.Crashes = f.Crashes
	res.CovLog = f.CoverageLog()
	return res, nil
}

// cell aggregates one (target, fuzzer) cell across repetitions.
type cell struct {
	results []*CampaignResult
}

func (c *cell) incompatible() bool {
	return len(c.results) > 0 && c.results[0].Incompatible
}

func (c *cell) coverages() []float64 {
	var out []float64
	for _, r := range c.results {
		out = append(out, float64(r.Coverage))
	}
	return out
}

func (c *cell) epsSamples() []float64 {
	var out []float64
	for _, r := range c.results {
		out = append(out, r.EPS)
	}
	return out
}

// runGrid runs the full (targets x fuzzers x reps) campaign grid. Asan is
// applied only where the paper does (dcmtk under Nyx-Net, Table 1 note).
func runGrid(cfg Config, fuzzers []FuzzerID) (map[string]map[FuzzerID]*cell, error) {
	grid := make(map[string]map[FuzzerID]*cell)
	for _, tgt := range cfg.Targets {
		grid[tgt] = make(map[FuzzerID]*cell)
		for _, fz := range fuzzers {
			cl := &cell{}
			for rep := 0; rep < cfg.Reps; rep++ {
				asan := tgt == "dcmtk" && fz.IsNyx()
				r, err := RunCampaign(tgt, fz, cfg.CampaignTime, cfg.Seed+int64(rep), asan)
				if err != nil {
					return nil, err
				}
				cl.results = append(cl.results, r)
				if r.Incompatible {
					break
				}
			}
			grid[tgt][fz] = cl
		}
	}
	return grid, nil
}
