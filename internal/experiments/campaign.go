package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// ---- Parallel campaign scaling (§5.1's multi-instance setup, §5.3's
// many-cores-per-host scalability argument, restated as an experiment) ----

// ScalingRow is one worker count's aggregated campaign outcome. Every row
// fuzzes for the same virtual duration per worker, so Execs and EPS grow
// with the worker count while per-worker time stays fixed — the ideal line
// is EPS scaling linearly in Workers. EPS, and so SpeedupX, divide by
// virtual time: they are linear by construction and say nothing of how the
// workers share a host's cores (the repo benchmark's ftp-par workload
// measures that in wall-clock time).
//
// The sync columns are the broker benchmark. SyncWallPerEpoch is real
// (wall-clock) time inside the broker per exchange, waiting for its lock
// included. Caveat: the clock keeps running while an exchange goroutine is
// descheduled, so with more workers than cores the column mostly measures
// runnable-queue delay; judge it only on hosts with cores >= workers.
type ScalingRow struct {
	Workers  int
	SyncMode string
	Coverage int
	Corpus   int
	Deduped  uint64
	Execs    uint64
	EPS      float64
	// SpeedupX is this row's aggregate throughput relative to the first
	// row (pass worker count 1 first to get a single-worker baseline).
	SpeedupX float64
	// CoverageX is this row's aggregated coverage relative to the first
	// row.
	CoverageX float64

	SyncEpochs       uint64
	SyncWallPerEpoch time.Duration
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
			Workers:    n,
			SyncMode:   ss.Mode.String(),
			Coverage:   c.Coverage(),
			Corpus:     c.CorpusSize(),
			Deduped:    c.Deduped(),
			Execs:      c.Execs(),
			EPS:        c.ExecsPerSecond(),
			SyncEpochs: uint64(ss.Epochs),
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
	fmt.Fprintf(&b, "%8s %9s %10s %10s %10s %12s %9s %10s %8s %12s\n",
		"Workers", "Sync", "Edges", "Corpus", "Deduped", "Execs/vs", "Speedup", "CoverageX", "Epochs", "Sync/epoch")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %9s %10d %10d %10d %12.1f %8.2fx %9.2fx %8d %12s\n",
			r.Workers, r.SyncMode, r.Coverage, r.Corpus, r.Deduped, r.EPS, r.SpeedupX, r.CoverageX,
			r.SyncEpochs, r.SyncWallPerEpoch.Round(time.Microsecond))
	}
	return b.String()
}
