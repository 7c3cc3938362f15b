package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestAblationHotpathReport runs the wall-clock ablation at reduced scale
// and checks the report's shape and the JSON round trip: every (target,
// config) cell present, wall-clock restore accounting populated, lookup
// telemetry only on the pool rows, and the schema tag intact.
func TestAblationHotpathReport(t *testing.T) {
	rep, err := AblationHotpath([]string{"lightftp"}, 2*time.Second, 1, DefaultSnapBudget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != hotpathSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (pool + single-slot)", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Target != "lightftp" {
			t.Fatalf("row target = %q", r.Target)
		}
		if r.Edges == 0 || r.Execs == 0 {
			t.Fatalf("%s: empty campaign: %+v", r.Config, r)
		}
		if r.Restores == 0 || r.RestoreWallNS <= 0 || r.NSPerRestore <= 0 {
			t.Fatalf("%s: restore wall accounting missing: %+v", r.Config, r)
		}
		switch r.Config {
		case "pool":
			if r.Lookups == 0 || r.LookupWallNS <= 0 {
				t.Fatalf("pool row without lookup telemetry: %+v", r)
			}
		case "single-slot":
			if r.Lookups != 0 {
				t.Fatalf("single-slot row with lookup telemetry: %+v", r)
			}
		default:
			t.Fatalf("unknown config %q", r.Config)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := WriteHotpathJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back HotpathReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Schema != rep.Schema || len(back.Rows) != len(rep.Rows) {
		t.Fatal("JSON round trip lost data")
	}
}

// The coverage outcome at equal virtual time and equal seed must be
// deterministic — the regression-guard property the hotpath ablation's
// edge columns rely on.
func TestAblationHotpathDeterministic(t *testing.T) {
	run := func() []int {
		rep, err := AblationHotpath([]string{"lightftp"}, time.Second, 7, DefaultSnapBudget)
		if err != nil {
			t.Fatal(err)
		}
		var edges []int
		for _, r := range rep.Rows {
			edges = append(edges, r.Edges)
		}
		return edges
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edges diverge between identical runs: %v vs %v", a, b)
		}
	}
}

// compareFixture builds a baseline/fresh report pair that passes the gate.
func compareFixture() (*HotpathReport, *HotpathReport) {
	row := HotpathRow{
		Target: "tinydtls", Config: "pool",
		Edges: 100, Execs: 5000, FullPrefixReexecs: 40,
		Restores: 5100, NSPerRestore: 3000,
		Lookups: 400, NSPerLookup: 4000,
		PagesReset: 50000, PagesCoWBroken: 49000,
	}
	base := &HotpathReport{Schema: hotpathSchema, VirtSeconds: 10, Seed: 1, BudgetBytes: 1 << 23, Rows: []HotpathRow{row}}
	fresh := &HotpathReport{Schema: hotpathSchema, VirtSeconds: 10, Seed: 1, BudgetBytes: 1 << 23, Rows: []HotpathRow{row}}
	return base, fresh
}

func TestCompareHotpathPasses(t *testing.T) {
	base, fresh := compareFixture()
	// Identical reports pass, and so does a fresh run that got faster:
	// the wall-clock bounds are one-sided.
	fresh.Rows[0].NSPerRestore = base.Rows[0].NSPerRestore * 0.5
	fresh.Rows[0].NSPerLookup = base.Rows[0].NSPerLookup * 0.5
	if problems := CompareHotpath(base, fresh, 0.15); len(problems) != 0 {
		t.Fatalf("gate should pass: %q", problems)
	}
	// Within tolerance passes too.
	fresh.Rows[0].NSPerRestore = base.Rows[0].NSPerRestore * 1.10
	if problems := CompareHotpath(base, fresh, 0.15); len(problems) != 0 {
		t.Fatalf("10%% slower within a 15%% gate should pass: %q", problems)
	}
}

func TestCompareHotpathFlagsWallClockRegressions(t *testing.T) {
	base, fresh := compareFixture()
	fresh.Rows[0].NSPerRestore = base.Rows[0].NSPerRestore * 1.30
	problems := CompareHotpath(base, fresh, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "ns_per_restore") {
		t.Fatalf("want one ns_per_restore problem, got %q", problems)
	}

	base, fresh = compareFixture()
	fresh.Rows[0].NSPerLookup = base.Rows[0].NSPerLookup * 2
	problems = CompareHotpath(base, fresh, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "ns_per_lookup") {
		t.Fatalf("want one ns_per_lookup problem, got %q", problems)
	}

	// The CoW ratio bound catches a zero-copy path that started breaking
	// more pages per reset even if raw counts moved together.
	base, fresh = compareFixture()
	fresh.Rows[0].PagesReset = 50000
	fresh.Rows[0].PagesCoWBroken = 70000
	problems = CompareHotpath(base, fresh, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "pages_cow_broken/pages_reset") {
		t.Fatalf("want one CoW-ratio problem, got %q", problems)
	}

	// The diagnostic must be readable at the scale the ratio lives at
	// (~0.003): value, baseline and limit are three different numbers.
	base, fresh = compareFixture()
	base.Rows[0].PagesReset, base.Rows[0].PagesCoWBroken = 59030, 186
	fresh.Rows[0].PagesReset, fresh.Rows[0].PagesCoWBroken = 59030, 227
	problems = CompareHotpath(base, fresh, 0.15)
	want := "pages_cow_broken/pages_reset = 0.003846 exceeds baseline 0.003151 by more than 15% (limit 0.003624)"
	if len(problems) != 1 || !strings.Contains(problems[0], want) {
		t.Fatalf("want %q, got %q", want, problems)
	}
	// Nanosecond columns keep their one-decimal form.
	base, fresh = compareFixture()
	base.Rows[0].NSPerRestore, fresh.Rows[0].NSPerRestore = 262.434, 400
	problems = CompareHotpath(base, fresh, 0.15)
	want = "ns_per_restore = 400.0 exceeds baseline 262.4 by more than 15% (limit 301.8)"
	if len(problems) != 1 || !strings.Contains(problems[0], want) {
		t.Fatalf("want %q, got %q", want, problems)
	}
}

func TestCompareHotpathFlagsDeterminismDrift(t *testing.T) {
	base, fresh := compareFixture()
	fresh.Rows[0].Edges++
	fresh.Rows[0].Execs--
	fresh.Rows[0].FullPrefixReexecs += 2
	problems := CompareHotpath(base, fresh, 0.15)
	if len(problems) != 3 {
		t.Fatalf("want 3 exact-match problems, got %q", problems)
	}
	for _, name := range []string{"edges", "execs", "full_prefix_reexecs"} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, name) {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing %s problem in %q", name, problems)
		}
	}
}

func TestCompareHotpathIncomparableAndMissingCells(t *testing.T) {
	base, fresh := compareFixture()
	fresh.Seed = 2
	problems := CompareHotpath(base, fresh, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "not comparable") {
		t.Fatalf("want incomparability problem, got %q", problems)
	}

	base, fresh = compareFixture()
	fresh.Rows = nil
	problems = CompareHotpath(base, fresh, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "cell missing") {
		t.Fatalf("want missing-cell problem, got %q", problems)
	}
}

func TestReadHotpathJSONRoundTrip(t *testing.T) {
	base, _ := compareFixture()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteHotpathJSON(path, base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHotpathJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0] != base.Rows[0] || got.Seed != base.Seed {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// A report with any other schema tag — foreign, or the retired v1 — is
	// refused with an error naming what was found, not silently gated.
	for _, schema := range []string{"something/else", "nyx-net/bench-hotpath/v1"} {
		bad := *base
		bad.Schema = schema
		if err := WriteHotpathJSON(path, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHotpathJSON(path); err == nil || !strings.Contains(err.Error(), schema) {
			t.Fatalf("schema %q: want an error naming it, got %v", schema, err)
		}
	}
}

func TestMinHotpathKeepsFastestWallClock(t *testing.T) {
	a, b := compareFixture()
	a.Rows[0].RestoreWallNS = 15_300_000
	a.Rows[0].LookupWallNS = 1_600_000
	b.Rows[0].RestoreWallNS = 20_000_000
	b.Rows[0].NSPerRestore = 3900
	b.Rows[0].LookupWallNS = 1_200_000
	b.Rows[0].NSPerLookup = 3000

	min, err := MinHotpath(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if min.Rows[0].NSPerRestore != 3000 || min.Rows[0].RestoreWallNS != 15_300_000 {
		t.Fatalf("restore column should come from the faster rep a: %+v", min.Rows[0])
	}
	if min.Rows[0].NSPerLookup != 3000 || min.Rows[0].LookupWallNS != 1_200_000 {
		t.Fatalf("lookup column should come from the faster rep b: %+v", min.Rows[0])
	}
	// The deterministic columns are untouched.
	if min.Rows[0].Edges != a.Rows[0].Edges || min.Rows[0].Execs != a.Rows[0].Execs {
		t.Fatalf("deterministic columns changed: %+v", min.Rows[0])
	}
}

func TestMinHotpathRejectsDivergentReps(t *testing.T) {
	a, b := compareFixture()
	b.Rows[0].Execs++
	if _, err := MinHotpath(a, b); err == nil {
		t.Fatal("want error for diverging deterministic columns")
	}
	a, b = compareFixture()
	b.Seed = 2
	if _, err := MinHotpath(a, b); err == nil {
		t.Fatal("want error for mismatched experiment headers")
	}
}

func TestCompareHotpathPredictorBounds(t *testing.T) {
	fixture := func() (*HotpathReport, *HotpathReport) {
		base, fresh := compareFixture()
		for _, r := range []*HotpathRow{&base.Rows[0], &fresh.Rows[0]} {
			r.PagesEagerCopied = 40000
			r.EagerHits = 38000
			r.EagerMisses = 2000
			r.EagerHitRate = 0.95
		}
		return base, fresh
	}
	base, fresh := fixture()
	if problems := CompareHotpath(base, fresh, 0.15); len(problems) != 0 {
		t.Fatalf("identical predictor columns should pass: %q", problems)
	}
	// The eager-copy share of reset pages may not balloon past the
	// baseline: that would be the predictor regressing toward
	// copy-everything while the CoW ratio still looks fine.
	base, fresh = fixture()
	fresh.Rows[0].PagesEagerCopied = 50000
	problems := CompareHotpath(base, fresh, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "pages_eager_copied/pages_reset") {
		t.Fatalf("want one eager-share problem, got %q", problems)
	}
	// The hit rate has a floor: spending copies on pages nobody writes is a
	// prediction-quality regression even if the copy volume held steady.
	base, fresh = fixture()
	fresh.Rows[0].EagerHitRate = 0.5
	problems = CompareHotpath(base, fresh, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "eager_hit_rate") {
		t.Fatalf("want one hit-rate problem, got %q", problems)
	}
	// A fresh run whose hit rate improved passes: the bound is one-sided.
	base, fresh = fixture()
	fresh.Rows[0].EagerHitRate = 1.0
	if problems := CompareHotpath(base, fresh, 0.15); len(problems) != 0 {
		t.Fatalf("improved hit rate should pass: %q", problems)
	}
	// A baseline cell where the predictor never engaged (all-zero predictor
	// columns) gates nothing, whatever the fresh run's predictor did.
	base, _ = compareFixture()
	_, fresh = fixture()
	if problems := CompareHotpath(base, fresh, 0.15); len(problems) != 0 {
		t.Fatalf("zero predictor baseline must gate nothing: %q", problems)
	}
}

func TestMinHotpathRejectsEagerCounterDrift(t *testing.T) {
	a, b := compareFixture()
	b.Rows[0].PagesEagerCopied++
	if _, err := MinHotpath(a, b); err == nil {
		t.Fatal("want error: eager page counts are deterministic campaign outcomes")
	}
	a, b = compareFixture()
	b.Rows[0].SectorsEagerCopied++
	if _, err := MinHotpath(a, b); err == nil {
		t.Fatal("want error: eager sector counts are deterministic campaign outcomes")
	}
}
