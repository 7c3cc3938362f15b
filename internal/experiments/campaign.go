package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// ---- Parallel campaign scaling (§5.1's multi-instance setup, §5.3's
// many-cores-per-host scalability argument, restated as an experiment) ----

// ScalingJSON is the file `nyx-bench -campaign` writes by default.
const ScalingJSON = "BENCH_campaign.json"

// ScalingRow is one worker count's aggregated campaign outcome. Every row
// fuzzes for the same virtual duration per worker, so Execs and EPS grow
// with the worker count while per-worker time stays fixed — the ideal line
// is EPS scaling linearly in Workers.
//
// The sync columns are the broker benchmark. SyncWallPerEpoch is real
// (wall-clock) time inside the broker per exchange, waiting for its lock
// included. Caveat: the clock keeps running while an exchange goroutine is
// descheduled, so with more workers than cores the column mostly measures
// runnable-queue delay; judge it only on hosts with cores >= workers.
// ShardContended / ShardAcquisitions is the scheduling-robust companion
// signal: the broker's one lock is taken once per exchange, and the ratio
// counts the exchanges that found it held and had to wait, independent of
// where the scheduler put the time.
type ScalingRow struct {
	Workers  int     `json:"workers"`
	SyncMode string  `json:"sync_mode"`
	Coverage int     `json:"edges"`
	Corpus   int     `json:"corpus"`
	Deduped  uint64  `json:"deduped"`
	Execs    uint64  `json:"execs"`
	EPS      float64 `json:"eps"`
	// SpeedupX is this row's aggregate throughput relative to the first
	// row (pass worker count 1 first to get a single-worker baseline).
	SpeedupX float64 `json:"speedup_x"`
	// CoverageX is this row's aggregated coverage relative to the first
	// row.
	CoverageX float64 `json:"coverage_x"`

	SyncEpochs        uint64        `json:"sync_epochs"`
	SyncWallPerEpoch  time.Duration `json:"sync_wall_per_epoch_ns"`
	ShardAcquisitions uint64        `json:"shard_acquisitions"`
	ShardContended    uint64        `json:"shard_contended"`
	ImportsDropped    uint64        `json:"imports_dropped"`
}

// ParallelScaling runs the campaign orchestrator at each worker count
// against cfg.Targets[0] (CampaignTime of virtual time per worker, master
// seed cfg.Seed, broker sync mode cfg.SyncMode) and reports how
// throughput, aggregated coverage, and broker sync cost scale.
func ParallelScaling(cfg Config, workerCounts []int) ([]ScalingRow, error) {
	cfg = cfg.withDefaults()
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	target := cfg.Targets[0]
	var rows []ScalingRow
	var base ScalingRow
	for i, n := range workerCounts {
		c, err := campaign.New(campaign.Config{
			Target:   target,
			Workers:  n,
			Policy:   core.PolicyAggressive,
			Power:    cfg.Power,
			Seed:     cfg.Seed,
			SyncMode: cfg.SyncMode,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %d workers: %w", n, err)
		}
		if err := c.RunFor(cfg.CampaignTime); err != nil {
			return nil, fmt.Errorf("experiments: scaling %d workers: %w", n, err)
		}
		ss := c.SyncStats()
		row := ScalingRow{
			Workers:           n,
			SyncMode:          ss.Mode.String(),
			Coverage:          c.Coverage(),
			Corpus:            c.CorpusSize(),
			Deduped:           c.Deduped(),
			Execs:             c.Execs(),
			EPS:               c.ExecsPerSecond(),
			SyncEpochs:        uint64(ss.Epochs),
			ShardAcquisitions: ss.ShardAcquisitions,
			ShardContended:    ss.ShardContended,
			ImportsDropped:    ss.ImportsDropped,
		}
		if ss.Epochs > 0 {
			row.SyncWallPerEpoch = ss.SyncWall / time.Duration(ss.Epochs)
		}
		if i == 0 {
			base = row
		}
		if base.EPS > 0 {
			row.SpeedupX = row.EPS / base.EPS
		}
		if base.Coverage > 0 {
			row.CoverageX = float64(row.Coverage) / float64(base.Coverage)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderParallelScaling formats the scaling table.
func RenderParallelScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %9s %10s %10s %10s %12s %9s %10s %8s %12s %10s\n",
		"Workers", "Sync", "Edges", "Corpus", "Deduped", "Execs/vs", "Speedup", "CoverageX", "Epochs", "Sync/epoch", "Contended")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %9s %10d %10d %10d %12.1f %8.2fx %9.2fx %8d %12s %10d\n",
			r.Workers, r.SyncMode, r.Coverage, r.Corpus, r.Deduped, r.EPS, r.SpeedupX, r.CoverageX,
			r.SyncEpochs, r.SyncWallPerEpoch.Round(time.Microsecond), r.ShardContended)
	}
	return b.String()
}

// scalingReport is the BENCH_campaign.json wrapper.
type scalingReport struct {
	Schema string       `json:"schema"`
	Target string       `json:"target"`
	Seed   int64        `json:"seed"`
	VirtNS int64        `json:"virt_ns_per_worker"`
	Rows   []ScalingRow `json:"rows"`
}

const scalingSchema = "nyx-bench/campaign-scaling/v1"

// WriteScalingJSON writes the scaling rows to path (ScalingJSON by
// default) for machine-readable tracking of broker sync cost across
// worker counts.
func WriteScalingJSON(path string, cfg Config, rows []ScalingRow) error {
	if path == "" {
		path = ScalingJSON
	}
	cfg = cfg.withDefaults()
	rep := scalingReport{
		Schema: scalingSchema,
		Target: cfg.Targets[0],
		Seed:   cfg.Seed,
		VirtNS: cfg.CampaignTime.Nanoseconds(),
		Rows:   rows,
	}
	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: scaling report: %w", err)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return fmt.Errorf("experiments: scaling report: %w", err)
	}
	return nil
}
