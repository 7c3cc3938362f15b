package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/snappool"
	"repro/internal/stats"
	"repro/internal/targets"
	"repro/internal/vm"
)

// AblationResult is one configuration's outcome in an ablation sweep.
type AblationResult struct {
	Name  string
	Value float64
	Unit  string
}

// ablationResets is the number of root restores each reset ablation times.
const ablationResets = 100

// rootResetTime runs ablationResets root restores of m, each after dirty,
// and returns the virtual time they charged.
func rootResetTime(m *vm.Machine, dirty func()) time.Duration {
	m.TakeRoot()
	var total time.Duration
	for i := 0; i < ablationResets; i++ {
		dirty()
		t0 := m.Clock.Now()
		m.RestoreRoot() //nolint:errcheck // root exists
		total += m.Clock.Now() - t0
	}
	return total
}

// usPerReset converts the virtual time of ablationResets restores to
// microseconds per reset.
func usPerReset(total time.Duration) float64 {
	return total.Seconds() / ablationResets * 1e6
}

// AblationDirtyTracking compares Nyx's dirty-page stack against the
// KVM/Agamotto bitmap walk for root restores (virtual time per reset, on a
// large VM with a small working set — the case §2.3 motivates). The machine
// restores through its dirty stack; the walk row is a cost-model verdict,
// the stack row plus PerBitmapPage for every page of the VM on every reset.
// Figure 6 times a real bitmap walk (baseline.AgamottoManager) in wall clock.
func AblationDirtyTracking() []AblationResult {
	m := vm.New(vm.Config{MemoryPages: 1 << 18})
	stack := rootResetTime(m, func() {
		m.Mem.WriteAt(make([]byte, 8*mem.PageSize), 0) //nolint:errcheck // in range
	})
	walk := stack + ablationResets*time.Duration(m.Mem.NumPages())*m.Cost.PerBitmapPage
	return []AblationResult{
		{Name: "dirty-stack reset (Nyx)", Value: usPerReset(stack), Unit: "us/reset"},
		{Name: "bitmap-walk reset (KVM/Agamotto)", Value: usPerReset(walk), Unit: "us/reset"},
	}
}

// AblationDeviceReset compares Nyx-Net's structured device reset against
// QEMU-style serialize/deserialize (§4.2). The machine resets its devices
// structurally; the serialize row is a cost-model verdict, the structured
// row with DeviceResetSerial charged in place of DeviceResetFast.
func AblationDeviceReset() []AblationResult {
	m := vm.New(vm.Config{MemoryPages: 1024})
	m.Serial.WriteString("boot")
	structured := rootResetTime(m, func() {
		m.Mem.WriteAt([]byte{1}, 0) //nolint:errcheck // in range
		m.NIC.Receive([]byte("frame"))
	})
	serialize := structured + ablationResets*(m.Cost.DeviceResetSerial-m.Cost.DeviceResetFast)
	return []AblationResult{
		{Name: "structured device reset (Nyx-Net)", Value: usPerReset(structured), Unit: "us/reset"},
		{Name: "serialize/deserialize reset (QEMU)", Value: usPerReset(serialize), Unit: "us/reset"},
	}
}

// AblationSnapshotReuse sweeps the snapshot reuse count (§3.4 observes that
// as few as 50 reuses already pays off) and reports throughput on a
// long-input target.
func AblationSnapshotReuse(reuses []int, dur time.Duration, seed int64) ([]AblationResult, error) {
	if reuses == nil {
		reuses = []int{1, 10, 50, 200}
	}
	if dur == 0 {
		dur = 10 * time.Second
	}
	var out []AblationResult
	for _, reuse := range reuses {
		inst, err := targets.Launch("proftpd", targets.LaunchConfig{})
		if err != nil {
			return nil, err
		}
		f := core.New(inst.Agent, inst.Spec, core.Options{
			Policy:        core.PolicyAggressive,
			Seeds:         inst.Seeds(),
			Rand:          rand.New(rand.NewSource(seed)),
			Dict:          inst.Info.Dict,
			SnapshotReuse: reuse,
		})
		if err := f.RunFor(dur); err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Name:  fmt.Sprintf("snapshot reuse %d", reuse),
			Value: f.ExecsPerSecond(),
			Unit:  "execs/s",
		})
	}
	return out, nil
}

// schedConfigs are the scheduling ablation's rows: the flat round-robin
// rotation, the AFL-style scheduler, and the coe power schedule on it.
var schedConfigs = []struct {
	name  string
	sched core.Sched
	power core.Power
}{
	{"round-robin", core.SchedRoundRobin, core.PowerOff},
	{"afl", core.SchedAFL, core.PowerOff},
	{"afl+coe", core.SchedAFL, core.PowerCoe},
}

// SchedRow is one configuration of the scheduling ablation.
type SchedRow struct {
	Name string
	// Edges is the final coverage of each seed's run, in seed order.
	Edges []float64
	// P is the two-sided Mann–Whitney U p-value and A12 the Vargha–Delaney
	// Â12 of Edges against plain afl's (afl's own row reads 1 and 0.5).
	P, A12 float64
}

// SchedAblation is the scheduling ablation of one target over cfg.Reps seeds.
type SchedAblation struct {
	Target string
	Dur    time.Duration
	Rows   []SchedRow
	// AFLTimeToRR is, per seed, the virtual seconds plain afl took to reach
	// that seed's round-robin final coverage, or -1 where it never did.
	AFLTimeToRR []float64
}

// AblationScheduling ablates the corpus scheduler at equal virtual time:
// target fuzzed for cfg.CampaignTime under the aggressive policy on seeds
// cfg.Seed … cfg.Seed+cfg.Reps-1, once per schedConfigs row. Each row
// carries every seed's final coverage and its Mann–Whitney p and Â12
// against plain afl, and the result the virtual time afl needed to reach
// the round-robin run's final coverage on the same seed — the "no more
// virtual time for the same coverage" claim, measured rather than asserted.
func AblationScheduling(cfg Config, target string) (*SchedAblation, error) {
	cfg = cfg.withDefaults()
	if target == "" {
		target = "lightftp"
	}
	res := &SchedAblation{Target: target, Dur: cfg.CampaignTime, Rows: make([]SchedRow, len(schedConfigs))}
	for rep := 0; rep < cfg.Reps; rep++ {
		seed := cfg.Seed + int64(rep)
		var rrEdges int
		for i, sc := range schedConfigs {
			inst, err := targets.Launch(target, targets.LaunchConfig{})
			if err != nil {
				return nil, err
			}
			f := core.New(inst.Agent, inst.Spec, core.Options{
				Policy: core.PolicyAggressive,
				Seeds:  inst.Seeds(),
				Rand:   rand.New(rand.NewSource(seed)),
				Dict:   inst.Info.Dict,
				Sched:  sc.sched,
				Power:  sc.power,
			})
			if err := f.RunFor(cfg.CampaignTime); err != nil {
				return nil, err
			}
			res.Rows[i].Name = sc.name
			res.Rows[i].Edges = append(res.Rows[i].Edges, float64(f.Coverage()))
			switch {
			case sc.sched == core.SchedRoundRobin:
				rrEdges = f.Coverage()
			case sc.power == core.PowerOff:
				tt := -1.0
				if d := reachedAt(f.CoverageLog(), rrEdges); d >= 0 {
					tt = d.Seconds()
				}
				res.AFLTimeToRR = append(res.AFLTimeToRR, tt)
			}
		}
	}
	afl := res.Rows[1].Edges // schedConfigs[1] is plain afl
	for i := range res.Rows {
		res.Rows[i].P = stats.MannWhitneyU(res.Rows[i].Edges, afl)
		res.Rows[i].A12 = stats.VarghaDelaneyA12(res.Rows[i].Edges, afl)
	}
	return res, nil
}

// RenderSchedAblation formats the scheduling ablation: per row the median
// and quartiles of final edges with p and Â12 against afl, then afl's median
// time to round-robin coverage over the seeds that reached it.
func RenderSchedAblation(a *SchedAblation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, %d seeds x %v virtual (aggressive policy; p and A12 of final edges against afl)\n",
		a.Target, len(a.AFLTimeToRR), a.Dur)
	fmt.Fprintf(&b, "  %-14s %8s  %-15s %6s %5s\n", "config", "median", "quartiles", "p", "A12")
	for _, r := range a.Rows {
		q := fmt.Sprintf("%.1f–%.1f", stats.Quantile(r.Edges, 0.25), stats.Quantile(r.Edges, 0.75))
		fmt.Fprintf(&b, "  %-14s %8.1f  %-15s %6.3f %5.2f\n", r.Name, stats.Median(r.Edges), q, r.P, r.A12)
	}
	var reached []float64
	for _, tt := range a.AFLTimeToRR {
		if tt >= 0 {
			reached = append(reached, tt)
		}
	}
	fmt.Fprintf(&b, "  afl reached round-robin's final coverage on %d of %d seeds", len(reached), len(a.AFLTimeToRR))
	if len(reached) > 0 {
		fmt.Fprintf(&b, ", in %.1f virt-s median", stats.Median(reached))
	}
	b.WriteString("\n")
	return b.String()
}

// AblationSnapshotPool ablates the snapshot mechanism itself at equal
// virtual time and equal seed: the prefix-keyed snapshot pool
// (-snapbudget) against the single-slot snapshot the paper describes, and
// against no incremental snapshots at all. The pool's claim is that it
// strictly reduces full-prefix re-executions — snapshot-creation runs
// that re-ran their whole prefix from the root (Fuzzer.FullPrefixReexecs)
// — because snapshots survive queue-entry switches and are shared across
// entries with common prefixes. Total root execs (a separate counter that
// also covers seed imports, trims and non-snapshot rounds) typically
// RISES under the pool: cheaper rounds mean more rounds fit in the same
// virtual time. Each target contributes rows for final coverage, both
// exec counters per configuration, and the pool's hit/miss/eviction
// counters and peak bytes (which must stay under the budget).
func AblationSnapshotPool(tgts []string, dur time.Duration, seed int64, budget int64) ([]AblationResult, error) {
	if len(tgts) == 0 {
		tgts = []string{"tinydtls", "dnsmasq"}
	}
	if dur == 0 {
		dur = 10 * time.Second
	}
	if budget <= 0 {
		// 0 means "pool off" everywhere else (nyx-net), and an ablation
		// of the pool against itself-disabled is meaningless — reject
		// rather than silently substitute the default.
		return nil, fmt.Errorf("experiments: snappool ablation needs a positive budget, got %d", budget)
	}
	var out []AblationResult
	for _, target := range tgts {
		pool, _, err := runSnapshotCell(target, core.PolicyAggressive, dur, seed, budget)
		if err != nil {
			return nil, err
		}
		single, _, err := runSnapshotCell(target, core.PolicyAggressive, dur, seed, 0)
		if err != nil {
			return nil, err
		}
		none, _, err := runSnapshotCell(target, core.PolicyNone, dur, seed, 0)
		if err != nil {
			return nil, err
		}
		st := pool.PoolStats()
		out = append(out,
			AblationResult{Name: fmt.Sprintf("%s pool coverage", target), Value: float64(pool.Coverage()), Unit: "edges"},
			AblationResult{Name: fmt.Sprintf("%s single-slot coverage", target), Value: float64(single.Coverage()), Unit: "edges"},
			AblationResult{Name: fmt.Sprintf("%s no-snapshot coverage", target), Value: float64(none.Coverage()), Unit: "edges"},
			AblationResult{Name: fmt.Sprintf("%s pool full-prefix re-execs", target), Value: float64(pool.FullPrefixReexecs()), Unit: "execs"},
			AblationResult{Name: fmt.Sprintf("%s single-slot full-prefix re-execs", target), Value: float64(single.FullPrefixReexecs()), Unit: "execs"},
			AblationResult{Name: fmt.Sprintf("%s pool root execs", target), Value: float64(pool.RootExecs()), Unit: "execs"},
			AblationResult{Name: fmt.Sprintf("%s single-slot root execs", target), Value: float64(single.RootExecs()), Unit: "execs"},
			AblationResult{Name: fmt.Sprintf("%s no-snapshot root execs", target), Value: float64(none.RootExecs()), Unit: "execs"},
			AblationResult{Name: fmt.Sprintf("%s pool hit rate", target), Value: hitRate(st), Unit: "% of rounds"},
			AblationResult{Name: fmt.Sprintf("%s pool evictions", target), Value: float64(st.Evictions), Unit: "slots"},
			AblationResult{Name: fmt.Sprintf("%s pool peak memory", target), Value: float64(st.PeakBytes) / (1 << 20), Unit: "MiB"},
		)
	}
	return out, nil
}

// runSnapshotCell runs one cell of the snapshot-pool ablation: a fresh
// instance of target fuzzed for dur of virtual time under policy, with a pool
// of snapBudget bytes (0 is the single-slot snapshot). It returns the fuzzer
// and the instance it ran on, whose machine holds the restore counters.
func runSnapshotCell(target string, policy core.Policy, dur time.Duration, seed, snapBudget int64) (*core.Fuzzer, *targets.Instance, error) {
	inst, err := targets.Launch(target, targets.LaunchConfig{})
	if err != nil {
		return nil, nil, err
	}
	f := core.New(inst.Agent, inst.Spec, core.Options{
		Policy:     policy,
		Seeds:      inst.Seeds(),
		Rand:       rand.New(rand.NewSource(seed)),
		Dict:       inst.Info.Dict,
		SnapBudget: snapBudget,
	})
	if err := f.RunFor(dur); err != nil {
		return nil, nil, err
	}
	return f, inst, nil
}

// hitRate renders pool hits as a percentage of snapshot rounds.
func hitRate(st snappool.Stats) float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return 100 * float64(st.Hits) / float64(st.Hits+st.Misses)
}

// AblationReMirror sweeps the incremental-snapshot re-mirror interval
// (§4.2 uses 2,000) and reports the peak overlay size on a churn workload,
// showing the memory/time trade-off.
func AblationReMirror(intervals []int) []AblationResult {
	if intervals == nil {
		intervals = []int{100, 500, 2000, 8000}
	}
	var out []AblationResult
	for _, iv := range intervals {
		m := mem.New(4096)
		m.ReMirrorInterval = iv
		m.TakeRoot()
		peak := 0
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 4000; i++ {
			// Each cycle returns to the root, dirties a few random pages
			// and re-snapshots into the same slot.
			m.RestoreRoot() //nolint:errcheck // root exists
			for j := 0; j < 4; j++ {
				m.TouchPage(uint32(rng.Intn(4096)))[0] = byte(i)
			}
			m.TakeIncrementalSlot(0) //nolint:errcheck // root exists
			if n := m.SlotPages(0); n > peak {
				peak = n
			}
		}
		out = append(out, AblationResult{
			Name:  fmt.Sprintf("re-mirror every %d", iv),
			Value: float64(peak),
			Unit:  "peak overlay pages",
		})
	}
	return out
}

// RenderAblation formats ablation results.
func RenderAblation(title string, rs []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range rs {
		fmt.Fprintf(&b, "  %-40s %12.1f %s\n", r.Name, r.Value, r.Unit)
	}
	return b.String()
}
