package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/targets"
)

// This file implements the wall-clock hotpath ablation: unlike every other
// experiment in the package — which measures the simulated virtual clock —
// it measures the REAL time the execution hot paths spend, so the zero-copy
// restore path (device shared-layer restores, mem CoW page aliasing) and
// the hash-free pool lookups (raw-digest keys, memoized per-entry digests)
// can be shown to be cheaper on hardware, not just in the cost model.
// Campaigns still run at equal virtual time and equal seed, so the
// coverage columns double as a regression check against the recorded
// snappool-ablation numbers.

// HotpathJSON is the file `nyx-bench -ablation hotpath` writes by default.
const HotpathJSON = "BENCH_hotpath.json"

// hotpathSchema versions the BENCH_hotpath.json layout; ReadHotpathJSON
// refuses any other.
const hotpathSchema = "nyx-net/bench-hotpath/v2"

// HotpathRow is one (target, configuration) cell of the hotpath ablation.
type HotpathRow struct {
	Target string `json:"target"`
	// Config is "pool" (prefix-keyed snapshot pool) or "single-slot" (the
	// paper's one-secondary-snapshot model).
	Config string `json:"config"`

	// Virtual-time outcome at the configured budget (regression guard).
	VirtSeconds float64 `json:"virt_seconds"`
	Edges       int     `json:"edges"`
	Execs       uint64  `json:"execs"`

	// Restore hot path, wall clock: total restores (root + incremental),
	// the real time they consumed, and the mean per restore.
	Restores      uint64  `json:"restores"`
	RestoreWallNS int64   `json:"restore_wall_ns"`
	NSPerRestore  float64 `json:"ns_per_restore"`

	// Lookup hot path, wall clock (pool config only): pool queries, the
	// real time they consumed, the mean per lookup, and how many hits were
	// served by a memoized digest without hashing a single opcode.
	Lookups      uint64  `json:"lookups,omitempty"`
	LookupWallNS int64   `json:"lookup_wall_ns,omitempty"`
	NSPerLookup  float64 `json:"ns_per_lookup,omitempty"`
	PoolHits     uint64  `json:"pool_hits,omitempty"`
	PoolMisses   uint64  `json:"pool_misses,omitempty"`
	DigestHits   uint64  `json:"digest_hits,omitempty"`

	// BucketWallNS is the mean wall time to snapshot one execution trace
	// into a reused []BucketHit scratch (coverage.Trace.BucketedInto),
	// measured over traces rebuilt from this campaign's queue entries —
	// the cost of the bucketing primitive itself on queue-shaped traces,
	// with the per-call allocation removed. (Production publication via
	// Trace.Bucketed additionally pays one exact-size allocation, because
	// queue entries retain their snapshot.)
	BucketWallNS int64 `json:"bucket_wall_ns,omitempty"`

	// Memory-layer counters: pages the restores reset (aliased in O(1)
	// each on the zero-copy path) and CoW breaks writes paid afterwards.
	// Reported for every config from the same MachineStats counter path,
	// so pool and single-slot rows read side by side.
	PagesReset     uint64 `json:"pages_reset"`
	PagesCoWBroken uint64 `json:"pages_cow_broken"`
	// CoWBreakRatio is PagesCoWBroken / PagesReset — the fraction of
	// restored pages whose alias the next execution broke anyway (the
	// CoW-break tax the write-set predictor exists to kill).
	CoWBreakRatio float64 `json:"cow_break_ratio"`

	// Write-set-profiled restore columns (schema v2): pages the restores
	// copied eagerly instead of aliasing, how the predictions graded out,
	// and the disk-side materializations. All deterministic outcomes.
	PagesEagerCopied   uint64 `json:"pages_eager_copied"`
	EagerHits          uint64 `json:"eager_hits"`
	EagerMisses        uint64 `json:"eager_misses"`
	SectorsEagerCopied uint64 `json:"sectors_eager_copied"`
	// EagerHitRate is EagerHits / (EagerHits + EagerMisses): the fraction
	// of eager copies the next execution actually wrote. Gated with a
	// lower bound so the predictor cannot silently regress toward
	// copy-everything.
	EagerHitRate float64 `json:"eager_hit_rate"`

	FullPrefixReexecs uint64 `json:"full_prefix_reexecs"`
}

// HotpathReport is the machine-readable output of the hotpath ablation.
type HotpathReport struct {
	Schema      string       `json:"schema"`
	VirtSeconds float64      `json:"virt_seconds"`
	Seed        int64        `json:"seed"`
	BudgetBytes int64        `json:"budget_bytes"`
	Rows        []HotpathRow `json:"rows"`
}

// AblationHotpath runs the wall-clock hotpath ablation: for each target,
// one pool campaign and one single-slot campaign at equal virtual time and
// equal seed, reporting real restore/lookup cost alongside the virtual-time
// coverage outcome.
func AblationHotpath(tgts []string, dur time.Duration, seed int64, budget int64) (*HotpathReport, error) {
	if len(tgts) == 0 {
		tgts = []string{"tinydtls", "dnsmasq"}
	}
	if dur == 0 {
		dur = 10 * time.Second
	}
	if budget <= 0 {
		budget = DefaultSnapBudget
	}
	rep := &HotpathReport{
		Schema:      hotpathSchema,
		VirtSeconds: dur.Seconds(),
		Seed:        seed,
		BudgetBytes: budget,
	}
	for _, target := range tgts {
		for _, cfg := range []struct {
			name       string
			snapBudget int64
		}{
			{"pool", budget},
			{"single-slot", 0},
		} {
			row, err := runHotpathCell(target, cfg.name, dur, seed, cfg.snapBudget)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// runHotpathCell runs one campaign and collects its wall-clock hot-path
// telemetry.
func runHotpathCell(target, name string, dur time.Duration, seed, snapBudget int64) (HotpathRow, error) {
	inst, err := targets.Launch(target, targets.LaunchConfig{})
	if err != nil {
		return HotpathRow{}, err
	}
	f := core.New(inst.Agent, inst.Spec, core.Options{
		Policy:     core.PolicyAggressive,
		Seeds:      inst.Seeds(),
		Rand:       rand.New(rand.NewSource(seed)),
		Dict:       inst.Info.Dict,
		SnapBudget: snapBudget,
	})
	if err := f.RunFor(dur); err != nil {
		return HotpathRow{}, err
	}
	ms := inst.M.Stats()
	mem := inst.M.Mem.Stats()
	row := HotpathRow{
		Target:             target,
		Config:             name,
		VirtSeconds:        f.Elapsed().Seconds(),
		Edges:              f.Coverage(),
		Execs:              f.Execs(),
		Restores:           ms.RootRestores + ms.IncRestores,
		RestoreWallNS:      ms.RestoreWall.Nanoseconds(),
		PagesReset:         mem.PagesReset,
		PagesCoWBroken:     ms.PagesCoWBroken,
		PagesEagerCopied:   ms.PagesEagerCopied,
		EagerHits:          ms.EagerHits,
		EagerMisses:        ms.EagerMisses,
		SectorsEagerCopied: ms.SectorsEagerCopied,
		FullPrefixReexecs:  f.FullPrefixReexecs(),
	}
	if row.Restores > 0 {
		row.NSPerRestore = float64(row.RestoreWallNS) / float64(row.Restores)
	}
	if row.PagesReset > 0 {
		row.CoWBreakRatio = float64(row.PagesCoWBroken) / float64(row.PagesReset)
	}
	if graded := row.EagerHits + row.EagerMisses; graded > 0 {
		row.EagerHitRate = float64(row.EagerHits) / float64(graded)
	}
	if f.PoolEnabled() {
		ps := f.PoolStats()
		row.Lookups = ps.Lookups
		row.LookupWallNS = ps.LookupWall.Nanoseconds()
		row.PoolHits = ps.Hits
		row.PoolMisses = ps.Misses
		row.DigestHits = ps.DigestHits
		if ps.Lookups > 0 {
			row.NSPerLookup = float64(row.LookupWallNS) / float64(ps.Lookups)
		}
	}
	row.BucketWallNS = measureSyncBucketing(f)
	return row, nil
}

// measureSyncBucketing times the trace-bucketing primitive with a reused
// scratch slice (coverage.Trace.BucketedInto) over traces rebuilt from the
// campaign's queue entries, so the timed workload has the size distribution
// of this campaign's real coverage snapshots. Only the BucketedInto call is
// timed (the trace rebuild is setup, not cost); the mean per call is
// returned, or 0 when the queue carries no coverage.
func measureSyncBucketing(f *core.Fuzzer) int64 {
	const (
		maxEntries = 64
		rounds     = 16
	)
	var tr coverage.Trace
	var scratch []coverage.BucketHit
	var total time.Duration
	calls := 0
	for r := 0; r < rounds; r++ {
		seen := 0
		for _, e := range f.Queue {
			if len(e.Cov) == 0 {
				continue
			}
			if seen++; seen > maxEntries {
				break
			}
			// Rebuild a trace with this entry's touched indices (hit
			// counts need not match; only the touched set drives cost).
			tr.Reset()
			tr.ResetPrev()
			for _, h := range e.Cov {
				tr.Hit(h.Index)
			}
			t0 := time.Now()
			scratch = tr.BucketedInto(scratch)
			total += time.Since(t0)
			calls++
		}
	}
	if calls == 0 {
		return 0
	}
	return (total / time.Duration(calls)).Nanoseconds()
}

// WriteHotpathJSON writes the report to path (HotpathJSON by default).
func WriteHotpathJSON(path string, rep *HotpathReport) error {
	if path == "" {
		path = HotpathJSON
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: hotpath report: %w", err)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return fmt.Errorf("experiments: hotpath report: %w", err)
	}
	return nil
}

// RenderHotpath formats the report for the terminal.
func RenderHotpath(rep *HotpathReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Ablation: wall-clock hot paths (zero-copy restores, hash-free lookups) ==\n")
	fmt.Fprintf(&b, "   %.0f virt-s per cell, seed %d, pool budget %.1f MiB\n",
		rep.VirtSeconds, rep.Seed, float64(rep.BudgetBytes)/(1<<20))
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-10s %-12s %6d edges %8d execs | %8d restores @ %7.0f ns | reset %8d pages, %6d CoW breaks (ratio %.2f)",
			r.Target, r.Config, r.Edges, r.Execs, r.Restores, r.NSPerRestore, r.PagesReset, r.PagesCoWBroken, r.CoWBreakRatio)
		if r.PagesEagerCopied > 0 {
			fmt.Fprintf(&b, " | eager %8d pages, hit rate %.2f", r.PagesEagerCopied, r.EagerHitRate)
		}
		if r.Lookups > 0 {
			fmt.Fprintf(&b, " | %6d lookups @ %6.0f ns (%d digest hits)", r.Lookups, r.NSPerLookup, r.DigestHits)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// ReadHotpathJSON loads a previously written hotpath report (the committed
// BENCH_hotpath.json baseline, for the CI regression gate).
func ReadHotpathJSON(path string) (*HotpathReport, error) {
	if path == "" {
		path = HotpathJSON
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: hotpath baseline: %w", err)
	}
	rep := new(HotpathReport)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("experiments: hotpath baseline %s: %w", path, err)
	}
	if rep.Schema != hotpathSchema {
		return nil, fmt.Errorf("experiments: hotpath baseline %s: schema %q, want %q",
			path, rep.Schema, hotpathSchema)
	}
	return rep, nil
}

// CompareHotpath checks a fresh hotpath report against a baseline and
// returns one problem string per violated bound (empty means the gate
// passes). Two kinds of columns are gated:
//
//   - Deterministic campaign outcomes (edges, execs, full-prefix re-execs)
//     must match the baseline exactly: the campaigns run at equal virtual
//     time and equal seed, so any drift is a determinism regression.
//   - Wall-clock hot-path costs (ns per restore, ns per lookup) and the
//     CoW-break-to-reset page ratio may not exceed the baseline by more
//     than tol (one-sided: getting faster never fails the gate).
//
// The reports must describe the same experiment (virtual duration, seed,
// pool budget); anything else is reported as a single incomparability
// problem.
func CompareHotpath(baseline, fresh *HotpathReport, tol float64) []string {
	if baseline.VirtSeconds != fresh.VirtSeconds || baseline.Seed != fresh.Seed ||
		baseline.BudgetBytes != fresh.BudgetBytes {
		return []string{fmt.Sprintf(
			"reports are not comparable: baseline ran %v virt-s seed %d budget %d, fresh ran %v virt-s seed %d budget %d",
			baseline.VirtSeconds, baseline.Seed, baseline.BudgetBytes,
			fresh.VirtSeconds, fresh.Seed, fresh.BudgetBytes)}
	}
	freshRows := make(map[string]HotpathRow, len(fresh.Rows))
	for _, r := range fresh.Rows {
		freshRows[r.Target+"/"+r.Config] = r
	}
	var problems []string
	for _, b := range baseline.Rows {
		cell := b.Target + "/" + b.Config
		f, ok := freshRows[cell]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: cell missing from fresh report", cell))
			continue
		}
		exact := []struct {
			name      string
			base, got uint64
		}{
			{"edges", uint64(b.Edges), uint64(f.Edges)},
			{"execs", b.Execs, f.Execs},
			{"full_prefix_reexecs", b.FullPrefixReexecs, f.FullPrefixReexecs},
		}
		for _, c := range exact {
			if c.base != c.got {
				problems = append(problems, fmt.Sprintf(
					"%s: %s = %d, baseline %d (equal-virtual-time campaigns must reproduce exactly)",
					cell, c.name, c.got, c.base))
			}
		}
		problems = appendRatioProblem(problems, cell, "ns_per_restore", b.NSPerRestore, f.NSPerRestore, tol)
		if b.Lookups > 0 {
			problems = appendRatioProblem(problems, cell, "ns_per_lookup", b.NSPerLookup, f.NSPerLookup, tol)
		}
		if b.PagesReset > 0 && f.PagesReset > 0 {
			baseRatio := float64(b.PagesCoWBroken) / float64(b.PagesReset)
			freshRatio := float64(f.PagesCoWBroken) / float64(f.PagesReset)
			problems = appendRatioProblem(problems, cell, "pages_cow_broken/pages_reset", baseRatio, freshRatio, tol)
		}
		// Predictor bounds (zero baselines — cells where the predictor never
		// engaged — gate nothing). The eager-copy
		// share of reset pages may not grow past the baseline, so the
		// predictor cannot silently regress toward copy-everything, and the
		// hit rate may not fall, so the copies it does spend stay justified.
		if b.PagesReset > 0 && f.PagesReset > 0 {
			baseEager := float64(b.PagesEagerCopied) / float64(b.PagesReset)
			freshEager := float64(f.PagesEagerCopied) / float64(f.PagesReset)
			problems = appendRatioProblem(problems, cell, "pages_eager_copied/pages_reset", baseEager, freshEager, tol)
		}
		problems = appendFloorProblem(problems, cell, "eager_hit_rate", b.EagerHitRate, f.EagerHitRate, tol)
	}
	return problems
}

// appendRatioProblem records a one-sided bound violation: got may not
// exceed base*(1+tol). A zero baseline gates nothing (the metric was not
// measured in the baseline run).
func appendRatioProblem(problems []string, cell, name string, base, got, tol float64) []string {
	if base <= 0 {
		return problems
	}
	limit := base * (1 + tol)
	if got > limit {
		problems = append(problems, fmt.Sprintf(
			"%s: %s = %s exceeds baseline %s by more than %.0f%% (limit %s)",
			cell, name, fmtBound(got), fmtBound(base), tol*100, fmtBound(limit)))
	}
	return problems
}

// fmtBound renders a gated value legibly at either scale the ratio gate
// sees: nanosecond columns (hundreds to thousands) to one decimal, page
// ratios (around 0.003) to four significant digits.
func fmtBound(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// appendFloorProblem records the opposite one-sided bound: got may not fall
// below base*(1-tol). A zero baseline gates nothing (the metric was absent
// or never engaged in the baseline run).
func appendFloorProblem(problems []string, cell, name string, base, got, tol float64) []string {
	if base <= 0 {
		return problems
	}
	limit := base * (1 - tol)
	if got < limit {
		problems = append(problems, fmt.Sprintf(
			"%s: %s = %.3f falls below baseline %.3f by more than %.0f%% (limit %.3f)",
			cell, name, got, base, tol*100, limit))
	}
	return problems
}

// MinHotpath merges two reps of the same hotpath experiment by taking the
// per-cell minimum of every wall-clock column — the standard noise-robust
// timing estimator, since scheduler jitter only ever adds time. The
// deterministic campaign columns must agree between reps (equal virtual
// time, equal seed: a mismatch means the run itself is nondeterministic and
// no wall-clock comparison is meaningful).
func MinHotpath(a, b *HotpathReport) (*HotpathReport, error) {
	if a.VirtSeconds != b.VirtSeconds || a.Seed != b.Seed || a.BudgetBytes != b.BudgetBytes {
		return nil, fmt.Errorf("experiments: MinHotpath: reps ran different experiments")
	}
	bRows := make(map[string]HotpathRow, len(b.Rows))
	for _, r := range b.Rows {
		bRows[r.Target+"/"+r.Config] = r
	}
	out := *a
	out.Rows = append([]HotpathRow(nil), a.Rows...)
	for i, ra := range out.Rows {
		cell := ra.Target + "/" + ra.Config
		rb, ok := bRows[cell]
		if !ok {
			return nil, fmt.Errorf("experiments: MinHotpath: cell %s missing from second rep", cell)
		}
		if ra.Edges != rb.Edges || ra.Execs != rb.Execs || ra.Restores != rb.Restores ||
			ra.FullPrefixReexecs != rb.FullPrefixReexecs ||
			ra.PagesReset != rb.PagesReset || ra.PagesCoWBroken != rb.PagesCoWBroken ||
			ra.PagesEagerCopied != rb.PagesEagerCopied ||
			ra.EagerHits != rb.EagerHits || ra.EagerMisses != rb.EagerMisses ||
			ra.SectorsEagerCopied != rb.SectorsEagerCopied {
			return nil, fmt.Errorf("experiments: MinHotpath: cell %s diverged between reps (campaigns must be deterministic)", cell)
		}
		if rb.RestoreWallNS < ra.RestoreWallNS {
			out.Rows[i].RestoreWallNS = rb.RestoreWallNS
			out.Rows[i].NSPerRestore = rb.NSPerRestore
		}
		if rb.Lookups > 0 && (ra.LookupWallNS == 0 || rb.LookupWallNS < ra.LookupWallNS) {
			out.Rows[i].LookupWallNS = rb.LookupWallNS
			out.Rows[i].NSPerLookup = rb.NSPerLookup
		}
		if rb.BucketWallNS > 0 && (ra.BucketWallNS == 0 || rb.BucketWallNS < ra.BucketWallNS) {
			out.Rows[i].BucketWallNS = rb.BucketWallNS
		}
	}
	return &out, nil
}
