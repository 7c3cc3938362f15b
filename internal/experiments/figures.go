package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/vm"
)

// ---- Figure 5 / Figure 7: coverage over time ----

// Figure5Series is one fuzzer's median coverage-over-time on one target.
type Figure5Series struct {
	Target string
	Fuzzer FuzzerID
	// Points sample the median coverage at fixed intervals; times are
	// in scaled hours (CampaignTime/24 = one hour).
	Hours []float64
	Edges []float64
}

// Figure5 reproduces the coverage-over-time plots. It returns one series
// per (target, fuzzer); Figure 7 is the same data with all fuzzers, so a
// single generator serves both.
func Figure5(cfg Config, fuzzers []FuzzerID) ([]Figure5Series, error) {
	cfg = cfg.withDefaults()
	if fuzzers == nil {
		fuzzers = []FuzzerID{FAFLnet, FNyxNone, FNyxBalanced, FNyxAggressive}
	}
	grid, err := runGrid(cfg, fuzzers)
	if err != nil {
		return nil, err
	}
	const samples = 48 // half-hour resolution over 24 scaled hours
	var out []Figure5Series
	for _, tgt := range cfg.Targets {
		for _, fz := range fuzzers {
			cl := grid[tgt][fz]
			if cl.incompatible() {
				continue
			}
			s := Figure5Series{Target: tgt, Fuzzer: fz}
			for i := 0; i <= samples; i++ {
				t := cfg.CampaignTime * time.Duration(i) / samples
				var vals []float64
				for _, r := range cl.results {
					vals = append(vals, float64(coverageAt(r.CovLog, t)))
				}
				s.Hours = append(s.Hours, 24*float64(i)/samples)
				s.Edges = append(s.Edges, stats.Median(vals))
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func coverageAt(log []core.CoveragePoint, t time.Duration) int {
	edges := 0
	for _, p := range log {
		if p.T > t {
			break
		}
		edges = p.Edges
	}
	return edges
}

// RenderFigure5CSV emits the series as CSV (target,fuzzer,hour,edges) for
// external plotting — the analogue of ProFuzzBench's plotting pipeline.
func RenderFigure5CSV(series []Figure5Series) string {
	var b strings.Builder
	b.WriteString("target,fuzzer,scaled_hour,median_edges\n")
	for _, s := range series {
		for i := range s.Hours {
			fmt.Fprintf(&b, "%s,%s,%.2f,%.0f\n", s.Target, s.Fuzzer, s.Hours[i], s.Edges[i])
		}
	}
	return b.String()
}

// ---- Figure 6: snapshot create/load throughput vs dirty pages ----

// Figure6Point is one measurement: operations per wall-clock second at a
// given dirty-page count and VM size.
type Figure6Point struct {
	System     string // "nyx" or "agamotto"
	VMPages    int
	DirtyPages int
	CreatePerS float64
	LoadPerS   float64
}

// Figure6 measures the real (wall-clock) throughput of creating and
// restoring incremental snapshots with n dirtied pages, for Nyx-Net's
// mechanism (dirty stack, single snapshot, CoW mirror) and the
// Agamotto-style manager (bitmap walk, snapshot tree), on two VM sizes.
// This is the one experiment run in wall time: the data structures ARE the
// contribution, so we measure them directly.
func Figure6(vmSizesPages []int, dirtyCounts []int, reps int) []Figure6Point {
	if vmSizesPages == nil {
		// 512 MiB and 4 GiB in the paper; scaled to 32 MiB and 256 MiB
		// so the benchmark stays laptop-friendly. Shapes (flat in VM
		// size for Nyx, bitmap-walk penalty for Agamotto) survive.
		vmSizesPages = []int{8192, 65536}
	}
	if dirtyCounts == nil {
		dirtyCounts = []int{10, 100, 1000, 4000}
	}
	if reps <= 0 {
		reps = 3
	}
	var out []Figure6Point
	buf := bytes.Repeat([]byte{0xAB}, mem.PageSize)

	for _, npages := range vmSizesPages {
		for _, n := range dirtyCounts {
			if n >= npages {
				continue
			}
			// Nyx-Net mechanism.
			m := mem.New(npages)
			m.TakeRoot()
			// One slot id, retaken from root-derived state each time — what
			// the agent's round-scoped snapshot does.
			createS := measure(reps, func() {
				m.RestoreRoot() //nolint:errcheck // root exists
				for i := 0; i < n; i++ {
					copy(m.TouchPage(uint32(i)), buf)
				}
			}, func() {
				m.TakeIncrementalSlot(0) //nolint:errcheck // root exists
			})
			loadS := measure(reps, func() {
				for i := 0; i < n; i++ {
					copy(m.TouchPage(uint32(i)), buf)
				}
			}, func() {
				m.RestoreIncrementalSlot(0) //nolint:errcheck // snapshot exists
			})
			out = append(out, Figure6Point{
				System: "nyx", VMPages: npages, DirtyPages: n,
				CreatePerS: createS, LoadPerS: loadS,
			})

			// Agamotto mechanism.
			a := baseline.NewAgamotto(npages)
			a.Checkpoint()
			aCreateS := measure(reps, func() {
				for i := 0; i < n; i++ {
					a.WritePage(uint32(i), buf)
				}
			}, func() {
				a.Checkpoint()
			})
			aLoadS := measure(reps, func() {
				for i := 0; i < n; i++ {
					a.WritePage(uint32(i), buf)
				}
			}, func() {
				a.Restore() //nolint:errcheck // checkpoint exists
			})
			out = append(out, Figure6Point{
				System: "agamotto", VMPages: npages, DirtyPages: n,
				CreatePerS: aCreateS, LoadPerS: aLoadS,
			})
		}
	}
	return out
}

// measure times reps iterations of op (with setup outside the timed
// region... setup dirties pages, op is the snapshot operation) and returns
// operations per second.
func measure(reps int, setup, op func()) float64 {
	var total time.Duration
	for i := 0; i < reps; i++ {
		setup()
		t0 := nowWall()
		op()
		total += nowWall() - t0
	}
	if total <= 0 {
		total = time.Nanosecond
	}
	return float64(reps) / total.Seconds()
}

var wallEpoch = time.Now()

// nowWall returns monotonic wall time since process start.
func nowWall() time.Duration { return time.Since(wallEpoch) }

// RenderFigure6CSV emits the measurements as CSV.
func RenderFigure6CSV(points []Figure6Point) string {
	var b strings.Builder
	b.WriteString("system,vm_pages,dirty_pages,create_per_s,load_per_s\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%d,%d,%.0f,%.0f\n", p.System, p.VMPages, p.DirtyPages, p.CreatePerS, p.LoadPerS)
	}
	return b.String()
}

// ---- §5.3 Scalability: shared root snapshots ----

// ScalabilityResult reports the memory cost of a parallel fleet.
type ScalabilityResult struct {
	Instances   int
	SingleBytes int64
	TotalBytes  int64
	Ratio       float64 // TotalBytes / SingleBytes; paper: ~2x for 80
}

// Scalability measures the §5.3 claim: N instances sharing one root
// snapshot cost about 2x one instance, not Nx. The root snapshot covers a
// realistic boot image (most of the VM's memory holds loaded code and
// data); each worker instance only owns its fuzzing working set.
func Scalability(instances, bootPages, workingSetPages int) (*ScalabilityResult, error) {
	if instances <= 0 {
		instances = 80
	}
	if bootPages <= 0 {
		bootPages = 3 << 10 // 12 MiB boot image in a 16 MiB VM
	}
	if workingSetPages <= 0 {
		workingSetPages = 24
	}
	m := vm.New(vm.Config{MemoryPages: bootPages + 1024})
	img := make([]byte, bootPages*mem.PageSize)
	for i := range img {
		img[i] = byte(i)
	}
	if _, err := m.Mem.WriteAt(img, 0); err != nil {
		return nil, err
	}
	m.TakeRoot()
	single := m.OwnedBytes()
	total := single
	for i := 1; i < instances; i++ {
		clone, err := m.CloneSharedRoot()
		if err != nil {
			return nil, err
		}
		ws := make([]byte, workingSetPages*mem.PageSize)
		if _, err := clone.Mem.WriteAt(ws, 0); err != nil {
			return nil, err
		}
		total += clone.OwnedBytes()
	}
	return &ScalabilityResult{
		Instances:   instances,
		SingleBytes: single,
		TotalBytes:  total,
		Ratio:       float64(total) / float64(single),
	}, nil
}
