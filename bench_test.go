// Benchmarks regenerating the paper's tables and figures. Each benchmark
// runs a reduced-scale version of the corresponding experiment (full scale:
// cmd/nyx-bench). Throughput-style results are reported via custom metrics
// so `go test -bench` output doubles as a summary of the reproduction.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/stats"
)

// benchCfg is the reduced experiment scale used by benchmarks.
func benchCfg(targets ...string) experiments.Config {
	return experiments.Config{
		CampaignTime: 6 * time.Second,
		Reps:         1,
		Seed:         1,
		Targets:      targets,
	}
}

// benchTargets is a representative subset (small, medium, large, UDP).
var benchTargets = []string{"lightftp", "dnsmasq", "proftpd"}

// BenchmarkTable1Crashes reproduces the crash-discovery comparison on
// targets with shallow bugs.
func BenchmarkTable1Crashes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchCfg("dnsmasq", "tinydtls", "proftpd"))
		if err != nil {
			b.Fatal(err)
		}
		crashes := 0
		for _, row := range rows {
			for _, mark := range row.Found {
				if mark != "-" && mark != "n/a" {
					crashes++
				}
			}
		}
		b.ReportMetric(float64(crashes), "crash-cells")
	}
}

// BenchmarkTable2Coverage reproduces the median-coverage comparison and
// reports Nyx-Net's average gain over AFLnet.
func BenchmarkTable2Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchCfg(benchTargets...))
		if err != nil {
			b.Fatal(err)
		}
		var gain float64
		for _, row := range rows {
			gain += row.Delta[experiments.FNyxAggressive]
		}
		b.ReportMetric(gain/float64(len(rows)), "avg-nyx-gain-%")
	}
}

// BenchmarkTable3Throughput reproduces the execs/sec comparison and reports
// the Nyx-aggressive : AFLnet throughput ratio.
func BenchmarkTable3Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchCfg(benchTargets...))
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for _, row := range rows {
			if afl := row.Mean[experiments.FAFLnet]; afl > 0 {
				ratio += row.Mean[experiments.FNyxAggressive] / afl
			}
		}
		b.ReportMetric(ratio/float64(len(rows)), "nyx/aflnet-speedup")
	}
}

// BenchmarkTable4Mario reproduces the Mario time-to-solve experiment on an
// easy level and reports the aggressive policy's solve time.
func BenchmarkTable4Mario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Config{CampaignTime: 30 * time.Minute, Reps: 1, Seed: 11}
		rows, err := experiments.Table4(cfg, []string{"1-4"})
		if err != nil {
			b.Fatal(err)
		}
		t := rows[0].Times[experiments.FNyxAggressive]
		if t > 0 {
			b.ReportMetric(t.Seconds(), "virt-s-to-solve")
		}
	}
}

// BenchmarkTable5TimeToCoverage reproduces the time-to-equal-coverage
// speedup factors.
func BenchmarkTable5TimeToCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(benchCfg("lightftp"))
		if err != nil {
			b.Fatal(err)
		}
		if s := rows[0].Speedup[experiments.FNyxAggressive]; s > 0 {
			b.ReportMetric(s, "speedup-x")
		}
	}
}

// BenchmarkFigure5CoverageOverTime regenerates the coverage-over-time
// series.
func BenchmarkFigure5CoverageOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure5(benchCfg("lightftp"),
			[]experiments.FuzzerID{experiments.FAFLnet, experiments.FNyxAggressive})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(series)), "series")
	}
}

// BenchmarkFigure6SnapshotCreate measures incremental snapshot creation in
// wall time at a typical dirty-set size (the paper's Figure 6, create).
func BenchmarkFigure6SnapshotCreate(b *testing.B) {
	m := mem.New(1 << 16)
	m.TakeRoot()
	buf := make([]byte, mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := m.RestoreRoot(); err != nil {
			b.Fatal(err)
		}
		for p := 0; p < 512; p++ {
			copy(m.TouchPage(uint32(p)), buf)
		}
		b.StartTimer()
		if _, err := m.TakeIncrementalSlot(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6SnapshotLoad measures incremental snapshot restore in
// wall time (the paper's Figure 6, load).
func BenchmarkFigure6SnapshotLoad(b *testing.B) {
	m := mem.New(1 << 16)
	m.TakeRoot()
	buf := make([]byte, mem.PageSize)
	for p := 0; p < 512; p++ {
		copy(m.TouchPage(uint32(p)), buf)
	}
	if _, err := m.TakeIncrementalSlot(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for p := 0; p < 512; p++ {
			copy(m.TouchPage(uint32(p)), buf)
		}
		b.StartTimer()
		if _, err := m.RestoreIncrementalSlot(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6AgamottoComparison runs the full Figure 6 sweep (both
// systems, both VM sizes) at reduced point count.
func BenchmarkFigure6AgamottoComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiments.Figure6([]int{4096, 16384}, []int{16, 256}, 2)
		b.ReportMetric(float64(len(points)), "points")
	}
}

// BenchmarkCampaignScaling measures the parallel campaign orchestrator the
// way §5.3 deploys it: N cores fuzzing for the same duration as one. The
// 4-worker aggregated campaign must reach at least the coverage of a single
// worker given the same per-worker execution budget (4 x T vs 1 x T), and
// the aggregate must dominate every one of its own workers. The
// equal-total-budget comparison (4 x T/4 vs 1 x T) is reported as the
// cov-equal-budget metric: parallel fuzzing trades early queue depth for
// breadth, so this ratio climbs towards 1.0 as campaigns lengthen.
func BenchmarkCampaignScaling(b *testing.B) {
	const dur = 8 * time.Second
	const workers = 4
	runCampaign := func(n int, d time.Duration) *campaign.Campaign {
		c, err := campaign.New(campaign.Config{
			Target: "lightftp", Workers: n, Policy: core.PolicyAggressive, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.RunFor(d); err != nil {
			b.Fatal(err)
		}
		return c
	}
	for i := 0; i < b.N; i++ {
		solo := runCampaign(1, dur)
		multi := runCampaign(workers, dur)
		if multi.Coverage() < solo.Coverage() {
			b.Fatalf("4 workers x %v found %d edges < single worker's %d", dur, multi.Coverage(), solo.Coverage())
		}
		for _, st := range multi.PerWorker() {
			if st.Coverage > multi.Coverage() {
				b.Fatalf("worker %d coverage %d exceeds the aggregate %d", st.ID, st.Coverage, multi.Coverage())
			}
		}
		budget := runCampaign(workers, dur/workers)
		b.ReportMetric(float64(multi.Coverage())/float64(solo.Coverage()), "cov-4wxT/1wxT")
		b.ReportMetric(multi.ExecsPerSecond()/solo.ExecsPerSecond(), "eps-4w/1w")
		b.ReportMetric(float64(budget.Coverage())/float64(solo.Coverage()), "cov-equal-budget")
		b.ReportMetric(float64(multi.Coverage()), "edges-4w")
	}
}

// BenchmarkScalabilitySharedRoot measures the §5.3 fleet-memory ratio.
func BenchmarkScalabilitySharedRoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scalability(80, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio, "fleet/single-mem-ratio")
	}
}

// BenchmarkAblationDirtyTracking compares stack vs bitmap-walk resets.
func BenchmarkAblationDirtyTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.AblationDirtyTracking()
		b.ReportMetric(rs[1].Value/rs[0].Value, "bitmap/stack-cost-ratio")
	}
}

// BenchmarkAblationSnapshotReuse sweeps the reuse count.
func BenchmarkAblationSnapshotReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.AblationSnapshotReuse([]int{1, 50}, 3*time.Second, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[1].Value/rs[0].Value, "reuse50/reuse1-throughput")
	}
}

// BenchmarkAblationScheduling ablates the corpus scheduler at equal
// virtual time, at smoke size (3 seeds x 3 virt-s on tinydtls): every
// configuration's median final coverage over round-robin's, and on how
// many seeds afl reached round-robin's final coverage within the run.
func BenchmarkAblationScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationScheduling(experiments.Config{CampaignTime: 3 * time.Second, Reps: 3, Seed: 1}, "tinydtls")
		if err != nil {
			b.Fatal(err)
		}
		rr := stats.Median(a.Rows[0].Edges)
		for _, r := range a.Rows[1:] {
			b.ReportMetric(stats.Median(r.Edges)/rr, r.Name+"/rr-coverage")
		}
		reached := 0
		for _, tt := range a.AFLTimeToRR {
			if tt >= 0 {
				reached++
			}
		}
		b.ReportMetric(float64(reached), "afl-seeds-reaching-rr-cov")
	}
}
