package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/snappool"
	"repro/internal/targets"
	"repro/internal/vm"
)

// AblationResult is one configuration's outcome in an ablation sweep.
type AblationResult struct {
	Name  string
	Value float64
	Unit  string
}

// AblationDirtyTracking compares Nyx's dirty-page stack against the
// KVM/Agamotto bitmap walk for root restores (virtual time per reset, on a
// large VM with a small working set — the case §2.3 motivates).
func AblationDirtyTracking() []AblationResult {
	run := func(strategy mem.RestoreStrategy) float64 {
		m := vm.New(vm.Config{MemoryPages: 1 << 18, RestoreStrategy: strategy})
		m.TakeRoot() //nolint:errcheck // fresh machine
		var total time.Duration
		const resets = 100
		for i := 0; i < resets; i++ {
			m.Mem.WriteAt(make([]byte, 8*mem.PageSize), 0) //nolint:errcheck // in range
			t0 := m.Clock.Now()
			m.RestoreRoot() //nolint:errcheck // root exists
			total += m.Clock.Now() - t0
		}
		return total.Seconds() / resets * 1e6 // microseconds per reset
	}
	return []AblationResult{
		{Name: "dirty-stack reset (Nyx)", Value: run(mem.RestoreStack), Unit: "us/reset"},
		{Name: "bitmap-walk reset (KVM/Agamotto)", Value: run(mem.RestoreBitmapWalk), Unit: "us/reset"},
	}
}

// AblationDeviceReset compares Nyx-Net's structured device reset against
// QEMU-style serialize/deserialize (§4.2).
func AblationDeviceReset() []AblationResult {
	run := func(mode vm.DeviceResetMode) float64 {
		m := vm.New(vm.Config{MemoryPages: 1024, ResetMode: mode})
		m.Serial.WriteString("boot")
		m.TakeRoot() //nolint:errcheck // fresh machine
		var total time.Duration
		const resets = 100
		for i := 0; i < resets; i++ {
			m.Mem.WriteAt([]byte{1}, 0) //nolint:errcheck // in range
			m.NIC.Receive([]byte("frame"))
			t0 := m.Clock.Now()
			m.RestoreRoot() //nolint:errcheck // root exists
			total += m.Clock.Now() - t0
		}
		return total.Seconds() / resets * 1e6
	}
	return []AblationResult{
		{Name: "structured device reset (Nyx-Net)", Value: run(vm.DeviceResetStructured), Unit: "us/reset"},
		{Name: "serialize/deserialize reset (QEMU)", Value: run(vm.DeviceResetSerialize), Unit: "us/reset"},
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

// ablationPowers is the power-schedule family the scheduling ablation
// sweeps, one row per schedule, after the rr and plain-afl rows.
var ablationPowers = []core.Power{core.PowerFast, core.PowerCoe, core.PowerExplore, core.PowerLin, core.PowerQuad, core.PowerAdaptive}

// AblationScheduling ablates the corpus scheduler at equal virtual time:
// the same target, policy, master seed and duration, once under the flat
// round-robin rotation the seed reproduction used, once under the
// AFL-style scheduler (favored culling, energy budgets, splice, lazy
// trim), and once per AFLfast-style power schedule layered on it. It
// reports every run's final coverage plus the virtual time the AFL
// scheduler needed to reach the round-robin run's final coverage — the
// "no more virtual time for the same coverage" claim, measured rather
// than asserted.
func AblationScheduling(target string, dur time.Duration, seed int64) ([]AblationResult, error) {
	if target == "" {
		target = "lightftp"
	}
	if dur == 0 {
		dur = 10 * time.Second
	}
	runSched := func(sched core.Sched, power core.Power) (*core.Fuzzer, error) {
		inst, err := targets.Launch(target, targets.LaunchConfig{})
		if err != nil {
			return nil, err
		}
		f := core.New(inst.Agent, inst.Spec, core.Options{
			Policy: core.PolicyAggressive,
			Seeds:  inst.Seeds(),
			Rand:   rand.New(rand.NewSource(seed)),
			Dict:   inst.Info.Dict,
			Sched:  sched,
			Power:  power,
		})
		if err := f.RunFor(dur); err != nil {
			return nil, err
		}
		return f, nil
	}
	rr, err := runSched(core.SchedRoundRobin, core.PowerOff)
	if err != nil {
		return nil, err
	}
	afl, err := runSched(core.SchedAFL, core.PowerOff)
	if err != nil {
		return nil, err
	}
	out := []AblationResult{
		{Name: "round-robin final coverage", Value: float64(rr.Coverage()), Unit: "edges"},
		{Name: "afl-sched final coverage", Value: float64(afl.Coverage()), Unit: "edges"},
	}
	for _, p := range ablationPowers {
		f, err := runSched(core.SchedAFL, p)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Name:  fmt.Sprintf("afl+%s final coverage", p),
			Value: float64(f.Coverage()),
			Unit:  "edges",
		})
	}
	if tt := afl.TimeToCoverage(rr.Coverage()); tt >= 0 {
		out = append(out, AblationResult{
			Name: "afl-sched time to round-robin coverage", Value: tt.Seconds(), Unit: "virt-s",
		})
	} else {
		out = append(out, AblationResult{
			Name: "afl-sched time to round-robin coverage", Value: -1, Unit: "virt-s (not reached)",
		})
	}
	return out, nil
}

// DefaultSnapBudget is the per-worker snapshot-pool byte budget the
// snappool ablation (and the nyx-net default) uses: 8 MiB — half a default
// 16 MiB VM, comfortably many prefix overlays, small enough that long
// campaigns exercise eviction.
const DefaultSnapBudget int64 = 8 << 20

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
	runCfg := func(target string, policy core.Policy, snapBudget int64) (*core.Fuzzer, error) {
		inst, err := targets.Launch(target, targets.LaunchConfig{})
		if err != nil {
			return nil, err
		}
		f := core.New(inst.Agent, inst.Spec, core.Options{
			Policy:     policy,
			Seeds:      inst.Seeds(),
			Rand:       rand.New(rand.NewSource(seed)),
			Dict:       inst.Info.Dict,
			SnapBudget: snapBudget,
		})
		if err := f.RunFor(dur); err != nil {
			return nil, err
		}
		return f, nil
	}
	var out []AblationResult
	for _, target := range tgts {
		pool, err := runCfg(target, core.PolicyAggressive, budget)
		if err != nil {
			return nil, err
		}
		single, err := runCfg(target, core.PolicyAggressive, 0)
		if err != nil {
			return nil, err
		}
		none, err := runCfg(target, core.PolicyNone, 0)
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
