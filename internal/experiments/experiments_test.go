package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vm"
)

// fastCfg keeps unit-test experiment runs small; the bench harness and the
// nyx-bench command run at full scale.
func fastCfg(targets ...string) Config {
	return Config{
		CampaignTime: 4 * time.Second,
		Reps:         2,
		Seed:         3,
		Targets:      targets,
	}
}

func TestRunCampaignNyxVsAFLnet(t *testing.T) {
	nyx, err := RunCampaign("lightftp", FNyxAggressive, 4*time.Second, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	afl, err := RunCampaign("lightftp", FAFLnet, 4*time.Second, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if nyx.EPS <= afl.EPS {
		t.Fatalf("Nyx-Net (%.1f e/s) must out-execute AFLnet (%.1f e/s)", nyx.EPS, afl.EPS)
	}
	if ratio := nyx.EPS / afl.EPS; ratio < 10 {
		t.Fatalf("throughput ratio %.1fx; paper reports orders of magnitude", ratio)
	}
	if nyx.Coverage < afl.Coverage {
		t.Fatalf("Nyx coverage (%d) below AFLnet (%d)", nyx.Coverage, afl.Coverage)
	}
}

func TestRunCampaignIncompatible(t *testing.T) {
	r, err := RunCampaign("proftpd", FAFLpp, time.Second, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Incompatible {
		t.Fatal("AFL++/desock on proftpd should be n/a")
	}
}

func TestRunCampaignUnknownFuzzer(t *testing.T) {
	if _, err := RunCampaign("lightftp", FuzzerID("bogus"), time.Second, 1, false); err == nil {
		t.Fatal("expected error for unknown fuzzer")
	}
}

func TestTable1FindsCrashes(t *testing.T) {
	rows, err := Table1(fastCfg("dnsmasq", "tinydtls"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no crash rows; shallow bugs should be found quickly")
	}
	found := map[string]string{}
	for _, row := range rows {
		found[row.Target] = row.Found[FNyxAggressive]
	}
	if found["dnsmasq"] != "✓" {
		t.Fatalf("nyx should crash dnsmasq, got %q", found["dnsmasq"])
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "dnsmasq") {
		t.Fatal("render missing target")
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(fastCfg("lightftp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	if row.AFLnetMedian <= 0 {
		t.Fatal("AFLnet found no coverage")
	}
	// The headline claim: Nyx-Net variants beat AFLnet on coverage.
	for _, fz := range []FuzzerID{FNyxNone, FNyxBalanced, FNyxAggressive} {
		if row.Delta[fz] <= 0 {
			t.Errorf("%s delta = %+.1f%%, expected positive", fz, row.Delta[fz])
		}
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "lightftp") {
		t.Fatal("render missing target")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(fastCfg("lightftp"))
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Mean[FNyxAggressive] <= row.Mean[FAFLnet] {
		t.Fatalf("aggressive (%.1f) must beat aflnet (%.1f)",
			row.Mean[FNyxAggressive], row.Mean[FAFLnet])
	}
	// AFLnet should be in the single/low double digits, as the paper
	// observes (§2.1).
	if row.Mean[FAFLnet] > 100 {
		t.Fatalf("AFLnet at %.1f execs/s is implausibly fast", row.Mean[FAFLnet])
	}
	if !strings.Contains(RenderTable3(rows), "±") {
		t.Fatal("render missing std dev")
	}
}

func TestTable4MarioSolves(t *testing.T) {
	cfg := Config{CampaignTime: 20 * time.Minute, Reps: 1, Seed: 11}
	rows, err := Table4(cfg, []string{"1-4"})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Solved[FNyxAggressive] == 0 {
		t.Fatal("aggressive policy should solve 1-4")
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "1-4") {
		t.Fatal("render missing level")
	}
}

func TestTable5Speedups(t *testing.T) {
	rows, err := Table5(fastCfg("lightftp"))
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	solvedAny := false
	for _, fz := range []FuzzerID{FNyxNone, FNyxBalanced, FNyxAggressive} {
		if row.Speedup[fz] > 1 {
			solvedAny = true
		}
	}
	if !solvedAny {
		t.Fatalf("no Nyx variant reached AFLnet's coverage faster: %+v", row.Speedup)
	}
	if !strings.Contains(RenderTable5(rows), "x") {
		t.Fatal("render missing speedup")
	}
}

// TestTable5ReportsMedianOverSeeds pins how Table 5 reads its grid: each
// fuzzer's campaign from a seed is timed against AFLnet's final coverage from
// the same seed, and the row holds medians over the seeds. Pairing every seed
// with the first seed's AFLnet campaign would give nyxnet-none a median of 4.
func TestTable5ReportsMedianOverSeeds(t *testing.T) {
	const s = time.Second
	campaign := func(coverage int, at time.Duration, edges int) *CampaignResult {
		return &CampaignResult{Coverage: coverage, CovLog: []core.CoveragePoint{{T: at / 2, Edges: edges / 2}, {T: at, Edges: edges}}}
	}
	cells := map[FuzzerID]*cell{
		FAFLnet: {results: []*CampaignResult{campaign(10, 4*s, 10), campaign(20, 2*s, 20), campaign(12, 6*s, 12)}},
		// Speedups 4, 2 and 0: the third seed stops at 10 edges, short of its AFLnet's 12.
		FNyxNone: {results: []*CampaignResult{campaign(15, 1*s, 10), campaign(30, 1*s, 25), campaign(10, 1*s, 10)}},
		// Only the third seed reaches its AFLnet's coverage: speedups 0, 0 and 12.
		FNyxBalanced: {results: []*CampaignResult{campaign(9, 1*s, 9), campaign(9, 1*s, 9), campaign(30, 1*s, 30)}},
		// Speedups 4000 (at time 0, counted as 1 ms), 0.5 and 3.
		FNyxAggressive: {results: []*CampaignResult{campaign(10, 0, 10), campaign(20, 4*s, 20), campaign(12, 2*s, 12)}},
	}
	row := table5Row("t", cells, []FuzzerID{FNyxNone, FNyxBalanced, FNyxAggressive})
	if row.AFLnetFinal != 4*s {
		t.Errorf("AFLnet's final coverage at %v in median, want 4s", row.AFLnetFinal)
	}
	for fz, want := range map[FuzzerID]float64{FNyxNone: 2, FNyxBalanced: 0, FNyxAggressive: 3} {
		if got := row.Speedup[fz]; got != want {
			t.Errorf("%s: median speedup %v, want %v", fz, got, want)
		}
	}
	if got := strings.Fields(strings.Split(RenderTable5([]Table5Row{row}), "\n")[1]); strings.Join(got, " ") != "t 4s 2x - 3x" {
		t.Errorf("rendered row %q", got)
	}
}

// TestReachedAt pins the one time-to-coverage helper Table 5 and the
// scheduling ablation share: the time of the first log point at or above the
// edge count, or -1 when no point gets there.
func TestReachedAt(t *testing.T) {
	const s = time.Second
	log := []core.CoveragePoint{{T: 0, Edges: 3}, {T: 2 * s, Edges: 7}, {T: 5 * s, Edges: 7}, {T: 9 * s, Edges: 12}}
	for _, c := range []struct {
		log   []core.CoveragePoint
		edges int
		want  time.Duration
	}{
		{log, 1, 0},     // the first point already reaches it
		{log, 5, 2 * s}, // the first point above it
		{log, 7, 2 * s}, // an exactly equal count, not the later equal point
		{log, 8, 9 * s}, // the last point
		{log, 13, -1},   // never reached
		{nil, 0, -1},    // an empty log reaches nothing
		{nil, 1, -1},
	} {
		if got := reachedAt(c.log, c.edges); got != c.want {
			t.Errorf("reachedAt(%d points, %d) = %v, want %v", len(c.log), c.edges, got, c.want)
		}
	}
}

func TestFigure5SeriesMonotone(t *testing.T) {
	series, err := Figure5(fastCfg("lightftp"), []FuzzerID{FAFLnet, FNyxAggressive})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		for i := 1; i < len(s.Edges); i++ {
			if s.Edges[i] < s.Edges[i-1] {
				t.Fatalf("%s/%s: series not monotone at %d", s.Target, s.Fuzzer, i)
			}
		}
		if s.Hours[len(s.Hours)-1] != 24 {
			t.Fatalf("time axis should end at 24 scaled hours, got %v", s.Hours[len(s.Hours)-1])
		}
	}
	csv := RenderFigure5CSV(series)
	if !strings.HasPrefix(csv, "target,fuzzer") {
		t.Fatal("bad CSV header")
	}
}

func TestFigure6Shapes(t *testing.T) {
	points := Figure6([]int{2048, 8192}, []int{8, 64, 512}, 2)
	if len(points) == 0 {
		t.Fatal("no measurements")
	}
	// Index by (system, vmpages, dirty).
	idx := map[string]Figure6Point{}
	for _, p := range points {
		idx[key3(p.System, p.VMPages, p.DirtyPages)] = p
	}
	// Shape 1: Nyx create/load throughput falls as dirty pages grow.
	n8 := idx[key3("nyx", 2048, 8)]
	n512 := idx[key3("nyx", 2048, 512)]
	if n8.CreatePerS <= n512.CreatePerS {
		t.Fatalf("nyx create should slow with more dirty pages: %v vs %v", n8.CreatePerS, n512.CreatePerS)
	}
	// Shape 2: at small dirty counts on the big VM, Nyx beats Agamotto
	// (the bitmap walk dominates Agamotto).
	nk := idx[key3("nyx", 8192, 8)]
	ak := idx[key3("agamotto", 8192, 8)]
	if nk.LoadPerS <= ak.LoadPerS {
		t.Fatalf("nyx load (%.0f/s) should beat agamotto (%.0f/s) at small dirty sets on large VMs",
			nk.LoadPerS, ak.LoadPerS)
	}
	if !strings.Contains(RenderFigure6CSV(points), "nyx") {
		t.Fatal("bad CSV")
	}
}

func key3(s string, a, b int) string {
	return s + ":" + itoa(a) + ":" + itoa(b)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestScalability(t *testing.T) {
	r, err := Scalability(80, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio > 2.5 {
		t.Fatalf("80 instances cost %.1fx one instance; paper reports ~2x", r.Ratio)
	}
	if r.Ratio < 1 {
		t.Fatalf("ratio %.2f below 1 is impossible", r.Ratio)
	}
}

func TestAblations(t *testing.T) {
	dt := AblationDirtyTracking()
	if dt[0].Value >= dt[1].Value {
		t.Fatalf("dirty stack (%.1f) should beat bitmap walk (%.1f)", dt[0].Value, dt[1].Value)
	}
	dr := AblationDeviceReset()
	if dr[0].Value >= dr[1].Value {
		t.Fatalf("structured reset (%.1f) should beat serialize (%.1f)", dr[0].Value, dr[1].Value)
	}
	rm := AblationReMirror([]int{50, 2000})
	if rm[0].Value > rm[1].Value {
		t.Fatalf("smaller re-mirror interval should bound the overlay: %v vs %v", rm[0].Value, rm[1].Value)
	}
	sr, err := AblationSnapshotReuse([]int{1, 50}, 3*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sr[1].Value <= sr[0].Value {
		t.Fatalf("reuse=50 (%.1f e/s) should beat reuse=1 (%.1f e/s)", sr[1].Value, sr[0].Value)
	}
	if !strings.Contains(RenderAblation("t", dt), "us/reset") {
		t.Fatal("render broken")
	}
}

// TestResetAblationsAreCostModelCharges pins the dirty-tracking and
// device-reset ablations: their four values, and each baseline row as the
// Nyx row plus that baseline's cost-model charge (a bitmap walk over the
// 2^18-page VM, the serialize reset in place of the structured one).
func TestResetAblationsAreCostModelCharges(t *testing.T) {
	dt, dr := AblationDirtyTracking(), AblationDeviceReset()
	cost := vm.DefaultCostModel()
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"dirty stack", dt[0].Value, 61.76},
		{"bitmap walk", dt[1].Value, 1634.624},
		{"structured device reset", dr[0].Value, 61.095},
		{"serialize device reset", dr[1].Value, 535.095},
		{"bitmap walk - dirty stack", dt[1].Value - dt[0].Value, us(1 << 18 * cost.PerBitmapPage)},
		{"serialize - structured", dr[1].Value - dr[0].Value, us(cost.DeviceResetSerial - cost.DeviceResetFast)},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s: %.9f us/reset, want %.9f", c.name, c.got, c.want)
		}
	}
}

// The scheduling ablation must show the AFL-style scheduler reaching the
// round-robin baseline's final coverage in no more virtual time (i.e.
// within the shared campaign duration) on at least one bundled target,
// and must emit one row per configuration, with one coverage per seed and
// afl's comparison against itself neutral.
func TestAblationScheduling(t *testing.T) {
	const dur, reps = 3 * time.Second, 3
	reached := false
	for _, tc := range []struct {
		target string
		seed   int64
	}{{"tinydtls", 1}, {"dnsmasq", 3}, {"lightftp", 1}} {
		a, err := AblationScheduling(Config{CampaignTime: dur, Reps: reps, Seed: tc.seed}, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(schedConfigs) || len(a.AFLTimeToRR) != reps {
			t.Fatalf("ablation returned %d rows and %d times, want %d and %d", len(a.Rows), len(a.AFLTimeToRR), len(schedConfigs), reps)
		}
		for i, r := range a.Rows {
			if r.Name != schedConfigs[i].name || len(r.Edges) != reps {
				t.Fatalf("row %d is %q with %d seeds, want %q with %d", i, r.Name, len(r.Edges), schedConfigs[i].name, reps)
			}
			for _, e := range r.Edges {
				if e <= 0 {
					t.Fatalf("%s: row %q found no coverage", tc.target, r.Name)
				}
			}
		}
		if afl := a.Rows[1]; afl.Name != "afl" || afl.P != 1 || afl.A12 != 0.5 {
			t.Fatalf("afl against itself: %+v", afl)
		}
		if out := RenderSchedAblation(a); !strings.Contains(out, "afl+coe") || !strings.Contains(out, "of 3 seeds") {
			t.Fatalf("render broken:\n%s", out)
		}
		for _, tt := range a.AFLTimeToRR {
			reached = reached || tt >= 0 && tt <= dur.Seconds()
		}
		if reached {
			break
		}
	}
	if !reached {
		t.Fatal("AFL scheduler never matched round-robin coverage within equal virtual time on any target")
	}
}

// The snapshot-pool ablation must show the pool strictly reducing
// full-prefix re-executions (root execs) versus the single-slot baseline
// at equal virtual time, with pool memory under budget.
func TestAblationSnapshotPool(t *testing.T) {
	const budget = int64(8 << 20)
	rs, err := AblationSnapshotPool([]string{"tinydtls"}, 5*time.Second, 1, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 11 {
		t.Fatalf("ablation returned %d rows, want 11", len(rs))
	}
	byName := map[string]float64{}
	for _, r := range rs {
		byName[r.Name] = r.Value
	}
	poolPfx := byName["tinydtls pool full-prefix re-execs"]
	singlePfx := byName["tinydtls single-slot full-prefix re-execs"]
	if poolPfx <= 0 || singlePfx <= 0 {
		t.Fatalf("degenerate re-exec counts: pool=%.0f single=%.0f", poolPfx, singlePfx)
	}
	if poolPfx >= singlePfx {
		t.Fatalf("pool must strictly reduce full-prefix re-execs: pool %.0f >= single-slot %.0f", poolPfx, singlePfx)
	}
	if cov := byName["tinydtls pool coverage"]; cov <= 0 {
		t.Fatal("pool run found no coverage")
	}
	if peak := byName["tinydtls pool peak memory"]; peak > float64(budget)/(1<<20) {
		t.Fatalf("pool peak %.2f MiB exceeds budget", peak)
	}
	if hr := byName["tinydtls pool hit rate"]; hr <= 0 {
		t.Fatal("pool never hit")
	}
}
