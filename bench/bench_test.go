package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func slices(walls []time.Duration, execs []uint64) []sliceSample {
	out := make([]sliceSample, len(walls))
	for i := range walls {
		out[i] = sliceSample{Wall: walls[i], Quiet: walls[i], Execs: execs[i], Edges: 10 * (i + 1)}
	}
	return out
}

func TestMinMergeDropsOneSlowRepetition(t *testing.T) {
	execs := []uint64{100, 100, 100, 100}
	quiet := []time.Duration{10e6, 10e6, 10e6, 10e6}
	clean := minMerge([][]sliceSample{slices(quiet, execs), slices(quiet, execs), slices(quiet, execs)})
	// One repetition runs 2x slow throughout, another has one slow slice.
	slow := []time.Duration{20e6, 20e6, 20e6, 20e6}
	blip := []time.Duration{10e6, 35e6, 10e6, 10e6}
	noisy := minMerge([][]sliceSample{slices(slow, execs), slices(quiet, execs), slices(blip, execs)})
	if got, want := noisy.execsPerSecond(), clean.execsPerSecond(); got != want {
		t.Fatalf("slow repetition moved the merged rate: %v, want %v", got, want)
	}
	if want := 400 / 0.040; clean.execsPerSecond() != want {
		t.Fatalf("merged rate %v, want %v", clean.execsPerSecond(), want)
	}
}

func TestMinMergeWeightsSlicesByExecs(t *testing.T) {
	// Slice 0: 100 execs at 1 ms each; slice 1: 900 execs at 0.1 ms each.
	// Seeded workload: the merged rate is total execs over summed minimum walls.
	a := slices([]time.Duration{100e6, 90e6}, []uint64{100, 900})
	b := slices([]time.Duration{150e6, 95e6}, []uint64{100, 900})
	m := minMerge([][]sliceSample{a, b})
	if got, want := m.execsPerSecond(), 1000/0.190; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("merged rate %v, want %v", got, want)
	}
	// Unseeded: the same slice does different work in each repetition, so
	// the minimum is taken over cost per exec, not over wall.
	c := slices([]time.Duration{100e6}, []uint64{100}) // 1.0 ms/exec
	d := slices([]time.Duration{120e6}, []uint64{200}) // 0.6 ms/exec, though the longer wall
	m = minMerge([][]sliceSample{c, d})
	if got, want := m.execsPerSecond(), 1/0.0006; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("merged rate %v, want %v", got, want)
	}
}

func TestMedianMergeKeepsTheMiddleRepetition(t *testing.T) {
	execs := []uint64{100, 100}
	// A campaign's steal correction is a repetition-wide average: one
	// repetition reads too cheap, one too dear, and the middle one stands.
	cheap := slices([]time.Duration{6e6, 10e6}, execs)
	fair := slices([]time.Duration{10e6, 11e6}, execs)
	dear := slices([]time.Duration{30e6, 12e6}, execs)
	m := medianMerge([][]sliceSample{dear, cheap, fair})
	if got, want := m.execsPerSecond(), 200/0.021; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("merged rate %v, want %v", got, want)
	}
}

// The probe must not depend on the heap of the program it runs beside.
func TestProbeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { probe() }); n != 0 {
		t.Fatalf("probe allocates %v objects per run", n)
	}
}

func TestWallToEdgesInterpolatesInsideTheCrossingSlice(t *testing.T) {
	m := minMerge([][]sliceSample{slices([]time.Duration{1e9, 1e9, 1e9}, []uint64{10, 10, 10})})
	// Edges after each slice: 10, 20, 30; before the first: 0.
	if got, ok := m.wallToEdges(0, 25); !ok || math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("wallToEdges(25) = %v, %v; want 2.5", got, ok)
	}
	if got, ok := m.wallToEdges(0, 10); !ok || math.Abs(got-1) > 1e-9 {
		t.Fatalf("wallToEdges(10) = %v, %v; want 1", got, ok)
	}
	if _, ok := m.wallToEdges(0, 31); ok {
		t.Fatal("wallToEdges reported a coverage the run never reached")
	}
}

func TestTopPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]int{10: 50, 19: 50, 20: 50, 39: 70, 40: 75, 100: 90, 200: 95, 1000: 99} {
		if got := topPercentile(n); got != want {
			t.Errorf("topPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	ds := make([]time.Duration, 40)
	for i := range ds {
		ds[i] = time.Duration(i + 1)
	}
	if got := percentile(ds, 75); got != 30 {
		t.Errorf("p75 of 1..40 = %d, want 30 (ten samples beyond it)", got)
	}
	if got := percentile(ds, 50); got != 20 {
		t.Errorf("p50 of 1..40 = %d, want 20", got)
	}
}

func TestSpanSelfTimeIsDurationMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.begin(spStep)
	for i := 0; i < 3; i++ {
		tr.begin(spRunRoot)
		tr.begin(spOnPacket)
		tr.end()
		tr.begin(spSaveState)
		tr.end()
		tr.end()
	}
	tr.end()
	a := tr.agg
	if a[spStep].Count != 1 || a[spRunRoot].Count != 3 || a[spOnPacket].Count != 3 {
		t.Fatalf("span counts %d/%d/%d", a[spStep].Count, a[spRunRoot].Count, a[spOnPacket].Count)
	}
	if got, want := a[spRunRoot].Self, a[spRunRoot].Total-a[spOnPacket].Total-a[spSaveState].Total; got != want {
		t.Errorf("exec self %v, want total minus children %v", got, want)
	}
	if got, want := a[spStep].Self, a[spStep].Total-a[spRunRoot].Total; got != want {
		t.Errorf("step self %v, want %v", got, want)
	}
	// Self times of the whole tree partition the root's duration.
	sum := a[spStep].Self + a[spRunRoot].Self + a[spOnPacket].Self + a[spSaveState].Self
	if sum != a[spStep].Total {
		t.Errorf("self times sum to %v, root span lasted %v", sum, a[spStep].Total)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
}

func TestSampledSpansLinkToTheirParents(t *testing.T) {
	tr := newTracer()
	tr.units = sampleEvery - 1 // the next exec is the sampled one
	tr.begin(spStep)
	tr.begin(spRunSnapshot)
	tr.begin(spOnPacket)
	tr.end()
	tr.end()
	tr.begin(spRunSnapshot) // not sampled
	tr.end()
	tr.end()
	linkParents(tr.samples)
	names := map[string]int{}
	for i, s := range tr.samples {
		names[s.Name] = i
	}
	if len(tr.samples) != 3 {
		t.Fatalf("recorded %d spans, want the sampled exec's two and the step around it", len(tr.samples))
	}
	pkt, exec, step := tr.samples[names["targets.on_packet"]], tr.samples[names["netemu.run_from_snapshot"]], names["core.step"]
	if pkt.Parent != names["netemu.run_from_snapshot"] || exec.Parent != step || tr.samples[step].Parent != -1 {
		t.Errorf("parents: packet→%d exec→%d step→%d", pkt.Parent, exec.Parent, tr.samples[step].Parent)
	}
}

// A traced run must be the same run: same execs and coverage slice by
// slice, same crashes, same virtual time.
func TestDecoratorsAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 1-virtual-second campaigns per workload")
	}
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ftp-snap", "dtls-root"} {
		w := find(ws, name).scaled(time.Second)
		plain, err := runRep(w, 1, &env{})
		if err != nil {
			t.Fatal(err)
		}
		hub.drain()
		e := &env{tracer: newTracer()}
		traced, err := runRep(w, 1, e)
		if err != nil {
			t.Fatal(err)
		}
		if plain.fingerprint() != traced.fingerprint() {
			t.Errorf("%s: traced run diverged\nuntraced %s\ntraced   %s", name, plain.fingerprint(), traced.fingerprint())
		}
		if plain.Execs == 0 || plain.Edges == 0 {
			t.Errorf("%s: empty run: %d execs, %d edges", name, plain.Execs, plain.Edges)
		}
		if e.tracer.agg[spStep].Count == 0 || e.tracer.agg[spSaveState].Count == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
		if f := plain.Ops.Failed + traced.Ops.Failed; f != 0 {
			t.Errorf("%s: %d failed operations", name, f)
		}
	}
}

// BENCHMARK.json is generated from the tables in this package (-contract);
// a metric or workload added in one place only would go unmeasured or
// unreported.
func TestContractFileMatchesTheTables(t *testing.T) {
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, _ := json.Marshal(buildContract(ws))
	json.Unmarshal(gen, &want) //nolint:errcheck // just marshalled
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -contract`; regenerate it")
	}
	if len(perLayerSpecs) > 128 || len(endToEndSpecs) > 16 {
		t.Errorf("contract limits: %d per-layer (max 128), %d end-to-end (max 16)", len(perLayerSpecs), len(endToEndSpecs))
	}
}
