package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

//go:embed workloads.json
var workloadsJSON []byte

// dur is a time.Duration that reads from a JSON string ("500ms").
type dur time.Duration

func (d *dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = dur(v)
	return nil
}

// workload is one pinned definition from workloads.json. All durations are
// virtual time: a repetition's work is fixed by them and by the seed, never
// by the wall clock.
type workload struct {
	Name       string `json:"name"`
	Why        string `json:"why"`
	Target     string `json:"target"`
	Policy     string `json:"policy"`
	SnapBudget int64  `json:"snap_budget"`
	// Workers 1 drives core.New directly (the CLI's solo path); more go
	// through campaign.New with SyncMode and Sync.
	Workers  int    `json:"workers"`
	SyncMode string `json:"sync_mode"`
	Sync     dur    `json:"sync"`
	// Warmup is untimed virtual time before the first timed slice.
	Warmup    dur `json:"warmup_virt"`
	Slices    int `json:"slices"`
	SliceVirt dur `json:"slice_virt"`
	// RepWall is the pinned price of one repetition with its set-ups in the
	// driver protocol: --seconds buys seconds/RepWall repetitions (at least
	// 3). It is about what a repetition takes on the wall clock on this
	// sandbox; the checkpoint tail comes on top.
	RepWall dur `json:"rep_wall"`
	// RefEdges is the coverage wall_s_to_ref_edges waits for: about 80% of
	// what the seed commit reaches at the horizon. 0 pins no level and the
	// metric reads the wall of the whole horizon: the time to a fixed level
	// is the level's spread over seeds divided by the curve's log-slope,
	// which on every workload but ftp-snap is 20% or more.
	RefEdges int `json:"ref_edges"`
	// CheckpointEachSlice turns every slice into a run → CheckpointTo →
	// ResumeFrom cycle, and the campaign continues from the resumed copy.
	CheckpointEachSlice bool `json:"checkpoint_each_slice"`
	// TailVirt and TailCycles describe the checkpoint tail of a workload
	// that does not checkpoint per slice: the state reached is checkpointed
	// and resumed TailCycles times. A solo workload has no campaign to
	// checkpoint, so its tail first runs the CLI's -checkpoint path (a
	// 1-worker campaign of the same target, policy and seed) for TailVirt.
	// The cycles are identical work, so the tail may run them in several
	// passes and keep each cycle index's cheapest (TailPasses, default 1).
	TailVirt   dur `json:"tail_virt"`
	TailCycles int `json:"tail_cycles"`
	TailPasses int `json:"tail_passes"`

	policy   core.Policy
	syncMode campaign.SyncMode
}

func (w *workload) solo() bool { return w.Workers <= 1 }

// seeded reports whether identical seeds must give identical outputs.
func (w *workload) seeded() bool { return w.solo() || w.syncMode == campaign.SyncLockstep }

// merge folds repetitions into one schedule: a solo workload is timed on
// the thread clock, a campaign mostly by steal-scaled wall (estimate.go).
func (w *workload) merge(reps [][]sliceSample) merged {
	if w.solo() {
		return minMerge(reps)
	}
	return medianMerge(reps)
}

func loadWorkloads() ([]*workload, error) {
	var ws []*workload
	if err := json.Unmarshal(workloadsJSON, &ws); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for _, w := range ws {
		var err error
		if w.policy, err = core.ParsePolicy(w.Policy); err != nil {
			return nil, fmt.Errorf("workloads.json: %s: %w", w.Name, err)
		}
		if w.syncMode, err = campaign.ParseSyncMode(w.SyncMode); err != nil {
			return nil, fmt.Errorf("workloads.json: %s: %w", w.Name, err)
		}
		w.TailPasses = max(w.TailPasses, 1)
		if w.Slices < 1 || w.SliceVirt <= 0 || w.Workers < 1 || w.RepWall <= 0 {
			return nil, fmt.Errorf("workloads.json: %s: slices, slice_virt, workers and rep_wall must be positive", w.Name)
		}
	}
	return ws, nil
}

// scaled returns a copy of w cut to at most virt of timed virtual time per
// campaign (the -smoke and test sizes); warm-up and tail shrink with it.
func (w *workload) scaled(virt time.Duration) *workload {
	cp := *w
	if n := int(virt / time.Duration(w.SliceVirt)); n < cp.Slices {
		cp.Slices = max(n, 1)
	}
	cp.Warmup = min(cp.Warmup, dur(virt)/2)
	cp.TailVirt = min(cp.TailVirt, dur(virt))
	cp.TailCycles = min(cp.TailCycles, 3)
	cp.TailPasses = 1
	cp.RefEdges = 0
	return &cp
}
