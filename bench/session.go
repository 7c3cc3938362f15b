package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stats"
	"repro/internal/store"
)

// minReps is the fewest repetitions a result may rest on: with fewer the
// per-slice minimum cannot drop a slowdown.
const minReps = 3

// setupsPerRep is how many set-ups follow every repetition: spread over
// the run, a burst of host noise cannot sit under all of them.
const setupsPerRep = 25

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload measured at one seed.
type result struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	// Oversubscribed marks a run with more workers than cores: its numbers
	// are printed but must not be quoted.
	Oversubscribed bool `json:"oversubscribed"`

	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`

	// Per-repetition totals beside the merged values: raw wall, wall with
	// host steal taken out, that in reference time (over the host's
	// slowness), the host's steal share and slowness, and execs per second
	// of reference time.
	RepWallS          []float64 `json:"rep_wall_s"`
	RepOnCPUS         []float64 `json:"rep_on_cpu_s"`
	RepQuietS         []float64 `json:"rep_quiet_s"`
	RepStealShare     []float64 `json:"rep_steal_share"`
	RepSlowness       []float64 `json:"rep_slowness"`
	RepExecsPerS      []float64 `json:"rep_wall_execs_per_s"`
	MedianRepExecsPS  float64   `json:"median_rep_wall_execs_per_s"`
	Execs             uint64    `json:"execs"`
	VirtElapsedS      float64   `json:"virt_elapsed_s"`
	VirtExecsPerS     float64   `json:"virt_execs_per_s"` // the cost model's rate, beside the measured one
	CheckpointSamples int       `json:"checkpoint_samples"`
	TopPercentile     int       `json:"top_percentile"`
	// Curve is coverage over merged wall time, one point per slice end.
	Curve []curvePoint `json:"coverage_curve"`

	Counters counters `json:"counters"` // public per-layer counts of the last repetition
	Ops      opCount  `json:"ops"`
}

type curvePoint struct {
	WallS float64 `json:"wall_s"`
	Edges int     `json:"edges"`
}

// session accumulates the untraced repetitions of one workload at one seed.
type session struct {
	w    *workload
	seed int64
	env  *env

	// tailUntil is when the checkpoint tail stops adding passes (driver
	// protocol only; zero otherwise).
	tailUntil time.Time

	setups     []setupSample
	setupTicks cpuTicks // machine-wide CPU counters summed over the set-up blocks
	reps       []*repResult
	ops        opCount
}

func newSession(w *workload, seed int64) (*session, error) {
	// One bucket per workload: PutTree replaces the tree in place, so the
	// process-lifetime bucket holds one checkpoint at a time.
	st, err := store.Open("mem://bench-" + w.Name)
	if err != nil {
		return nil, err
	}
	return &session{w: w, seed: seed, env: &env{st: st}}, nil
}

// setupSample is one set-up: its parts on the thread clock and on the wall
// clock (run.go) and the host's slowness around it.
type setupSample struct {
	own, fanned time.Duration
	slow        float64
}

// setup times setupsPerRep set-ups, each right after a collection and with a probe of
// the host after it. A set-up is a few hundred microseconds of allocation;
// with the collector left to itself its cost follows whatever the process
// holds (the same set-up read 0.3 to 1.2 ms as the heap grew from 14 to 45
// MiB), and none runs inside a set-up that starts from a swept heap.
func (s *session) setup() error {
	ticks0 := readTicks()
	m := newMeter()
	for i := 0; i < setupsPerRep; i++ {
		runtime.GC()
		m.slowness() // the collection is not the set-up's work
		own, fanned, err := setupOnce(s.w, s.seed)
		s.ops.check(err == nil, "set-up: %v", err)
		if err != nil {
			return err
		}
		s.setups = append(s.setups, setupSample{own, fanned, m.slowness()})
	}
	ticks := readTicks()
	s.setupTicks.busy += ticks.busy - ticks0.busy
	s.setupTicks.steal += ticks.steal - ticks0.steal
	return nil
}

// setupSeconds is the median set-up in reference time. A single set-up is
// too short for the steal counters, so the wall-clock parts are scaled by
// the steal share of all the run's set-up blocks together.
func (s *session) setupSeconds() float64 {
	unstolen := 1 - stealShare(cpuTicks{}, s.setupTicks)
	secs := make([]float64, len(s.setups))
	for i, x := range s.setups {
		secs[i] = (x.own.Seconds() + x.fanned.Seconds()*unstolen) / x.slow
	}
	return stats.Median(secs)
}

// rep runs one more repetition and its set-ups, and returns their wall
// time.
func (s *session) rep() (time.Duration, error) {
	// Drop the previous repetition's campaign before timing the next one.
	for _, r := range s.reps {
		r.Final = nil
	}
	t0 := now()
	r, err := runRep(s.w, s.seed, s.env)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", s.w.Name, err)
	}
	s.ops.merge(r.Ops)
	if len(s.reps) > 0 && s.w.seeded() {
		s.ops.check(r.fingerprint() == s.reps[0].fingerprint(),
			"repetition %d of seeded workload %s differs from repetition 1 in execs, edges, crash keys or virtual time", len(s.reps)+1, s.w.Name)
	}
	s.reps = append(s.reps, r)
	if err := s.setup(); err != nil {
		return 0, err
	}
	return now().Sub(t0), nil
}

// finish runs the checkpoint tail and the output checks and folds the
// repetitions into a result. It is called right after the session's last
// repetition and lets go of that repetition's campaign, so no campaign is
// alive while another workload is measured.
func (s *session) finish() (*result, error) {
	w := s.w
	last := s.reps[len(s.reps)-1]
	slices := make([][]sliceSample, len(s.reps))
	for i, r := range s.reps {
		slices[i] = r.Slices
	}
	m := w.merge(slices)

	var ckpt, resume []time.Duration
	if w.CheckpointEachSlice {
		ckpt = minPerIndex(slices, func(x sliceSample) timed { return x.Checkpoint })
		resume = minPerIndex(slices, func(x sliceSample) timed { return x.Resume })
	} else {
		c, err := tailCampaign(w, s.seed, last.Final, s.env, &s.ops)
		if err != nil {
			return nil, fmt.Errorf("%s: checkpoint tail: %w", w.Name, err)
		}
		ck, re, err := checkpointCycles(c, w.Name, w.TailCycles, w.TailPasses, s.tailUntil, s.env, &s.ops)
		if err != nil {
			return nil, fmt.Errorf("%s: checkpoint tail: %w", w.Name, err)
		}
		ckpt, resume = refs(ck), refs(re)
	}
	if err := reproduceCrashes(w, last.Crashes, &s.ops); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	res := &result{
		Workload: w.Name, Why: w.Why, Seed: s.seed, Reps: len(s.reps),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Oversubscribed: w.Workers > runtime.GOMAXPROCS(0),
		EndToEnd:       map[string]metric{},
		Execs:          last.Execs,
		VirtElapsedS:   last.VirtElapsed.Seconds(),
		VirtExecsPerS:  float64(last.Execs) / last.VirtElapsed.Seconds(),
		Counters:       last.Counters,
	}
	var heaps []float64
	for _, r := range s.reps {
		res.RepWallS = append(res.RepWallS, r.Wall.Seconds())
		res.RepOnCPUS = append(res.RepOnCPUS, r.OnCPU.Seconds())
		res.RepQuietS = append(res.RepQuietS, r.Quiet.Seconds())
		res.RepStealShare = append(res.RepStealShare, 1-r.OnCPU.Seconds()/r.Wall.Seconds())
		res.RepSlowness = append(res.RepSlowness, r.OnCPU.Seconds()/r.Quiet.Seconds())
		res.RepExecsPerS = append(res.RepExecsPerS, float64(r.Execs)/r.Quiet.Seconds())
		heaps = append(heaps, r.LiveHeapMB)
	}
	res.MedianRepExecsPS = stats.Median(res.RepExecsPerS)

	for i, e := range m.Edges {
		res.Curve = append(res.Curve, curvePoint{m.wall(i + 1), e})
	}
	// A workload that pins no level reads the wall of its whole horizon.
	toRef := m.wall(len(m.Cost))
	if w.RefEdges > 0 {
		var ok bool
		toRef, ok = m.wallToEdges(last.StartEdges, w.RefEdges)
		s.ops.check(ok, "%s: coverage %d never reached ref_edges %d", w.Name, last.Edges, w.RefEdges)
	}
	res.CheckpointSamples = len(ckpt)
	res.TopPercentile = topPercentile(len(ckpt))

	e2e := res.EndToEnd
	e2e["setup_s"] = metric{s.setupSeconds(), "s"}
	e2e["wall_execs_per_s"] = metric{m.execsPerSecond(), "1/s"}
	e2e["wall_s_to_ref_edges"] = metric{toRef, "s"}
	e2e["edges"] = metric{float64(last.Edges), "count"}
	e2e["live_heap_mb"] = metric{stats.Median(heaps), "MiB"}
	e2e["checkpoint_ms_p50"] = metric{ms(percentile(ckpt, 50)), "ms"}
	e2e["checkpoint_ms_p75"] = metric{ms(percentile(ckpt, 75)), "ms"}
	e2e["resume_ms_p50"] = metric{ms(percentile(resume, 50)), "ms"}
	e2e["resume_ms_p75"] = metric{ms(percentile(resume, 75)), "ms"}
	res.Ops = s.ops
	last.Final = nil
	return res, nil
}
