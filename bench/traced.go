package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/store"
)

// tracedPairs is how many untraced/traced repetition pairs a traced run
// alternates; each side is min-merged before the overhead is taken.
const tracedPairs = 2

// dirCycles is how many extra checkpoint cycles go to the temporary dir://
// store. They are a per-layer number only: that store is this sandbox's disk.
const dirCycles = 10

// traceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Execs    uint64             `json:"execs"`
	Spans    map[string]spanAgg `json:"spans"`
	Samples  []spanRecord       `json:"samples"`
	Replay   replayed           `json:"replay_ns_per_op"`
	PerLayer map[string]metric  `json:"per_layer"`
}

// tracedRun measures the per-layer metrics of one workload at one seed:
// untraced and traced repetitions alternate, the traced run's final corpus
// is replayed through each layer's public functions, and the checkpoint
// cycles are repeated against mem:// and a temporary dir:// store with the
// store decorator in place.
func tracedRun(w *workload, seed int64, pairs int) (map[string]metric, opCount, error) {
	var ops opCount
	s, err := newSession(w, seed)
	if err != nil {
		return nil, ops, err
	}
	// The hub remembers every decorated instance (a whole VM each) until it
	// is drained; left behind, the tails' and the replay's would fatten the
	// heap, space the collector's cycles out, and speed up whatever is
	// measured next in this process.
	defer hub.drain()
	mem := &tracedStore{Storer: s.env.st}
	var (
		tracedSlices [][]sliceSample
		tr           *repResult
		te           *env
		proc         procStats
	)
	for i := 0; i < pairs; i++ {
		p0 := readProc()
		if _, err := s.rep(); err != nil {
			return nil, ops, err
		}
		proc = readProc().sub(p0)

		hub.drain()
		te = &env{st: mem, tracer: newTracer()}
		mem.t, mem.put, mem.get = te.tracer, nil, nil
		if tr, err = runRep(w, seed, te); err != nil {
			return nil, ops, fmt.Errorf("%s: traced: %w", w.Name, err)
		}
		ops.merge(tr.Ops)
		if w.seeded() {
			ops.check(tr.fingerprint() == s.reps[0].fingerprint(),
				"%s: the traced repetition differs from the untraced one in execs, edges, crash keys or virtual time", w.Name)
		}
		tracedSlices = append(tracedSlices, tr.Slices)
	}
	ops.merge(s.ops)
	un := s.reps[len(s.reps)-1]
	var unSlices [][]sliceSample
	for _, r := range s.reps {
		unSlices = append(unSlices, r.Slices)
	}
	unMerged, trMerged := w.merge(unSlices), w.merge(tracedSlices)
	in := layerInputs{
		traced: tr, untraced: un, proc: proc, workers: w.Workers,
		overheadPct: 100 * (trMerged.wall(len(trMerged.Cost))/unMerged.wall(len(unMerged.Cost)) - 1),
		speedupX:    1,
		quietShare:  float64(tr.Quiet) / float64(tr.Wall),
	}

	// Checkpoint cycles under the store decorator.
	c := tr.Final
	var ckpt, resume []timed
	if w.CheckpointEachSlice {
		// The workload's own cycles; the store lists also hold the warm-up's.
		for _, sl := range tr.Slices {
			ckpt = append(ckpt, sl.Checkpoint)
			resume = append(resume, sl.Resume)
		}
		mem.put = mem.put[len(mem.put)-len(tr.Slices):]
		mem.get = mem.get[len(mem.get)-len(tr.Slices):]
	} else {
		if c, err = tailCampaign(w, seed, c, te, &ops); err != nil {
			return nil, ops, err
		}
		mem.put, mem.get = nil, nil
		if ckpt, resume, err = checkpointCycles(c, w.Name, w.TailCycles, 1, time.Time{}, te, &ops); err != nil {
			return nil, ops, err
		}
	}
	in.ckpt, in.resume = refs(ckpt), refs(resume)
	in.memPut, in.memGet = inRef(mem.put, ckpt), inRef(mem.get, resume)
	if tree, err := mem.Storer.GetTree(w.Name); err == nil {
		in.ckptFiles = len(tree)
		for _, data := range tree {
			in.ckptBytes += len(data)
		}
	}
	dirPath := filepath.Join(outDir, fmt.Sprintf("dirstore-%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(dirPath)
	ds, err := store.Open("dir://" + dirPath)
	if err != nil {
		return nil, ops, err
	}
	dir := &tracedStore{Storer: ds, t: te.tracer, wallClock: true}
	if _, _, err := checkpointCycles(c, w.Name, min(dirCycles, len(in.ckpt)), 1, time.Time{}, &env{st: dir, tracer: te.tracer}, &ops); err != nil {
		return nil, ops, err
	}
	in.dirPut, in.dirGet = dir.put, dir.get

	// Real-core scaling against the same engine with one worker through
	// core.New. Not defined for a stop-and-go workload: the solo path has
	// no checkpoint to stop for.
	if !w.solo() && !w.CheckpointEachSlice {
		twin := *w
		twin.Workers = 1
		var solo [][]sliceSample
		for i := 0; i < pairs; i++ {
			r, err := runSolo(&twin, seed, &env{})
			if err != nil {
				return nil, ops, fmt.Errorf("%s: solo twin: %w", w.Name, err)
			}
			ops.merge(r.Ops)
			solo = append(solo, r.Slices)
		}
		in.speedupX = unMerged.execsPerSecond() / minMerge(solo).execsPerSecond()
	}

	if in.replay, err = replay(w, seed, tr.Corpus); err != nil {
		return nil, ops, fmt.Errorf("%s: replay: %w", w.Name, err)
	}
	in.agg = te.tracer.agg
	layers := perLayer(in)

	spans := make(map[string]spanAgg, nSpanKinds)
	for k, a := range in.agg {
		if a.Count > 0 {
			spans[spanNames[k]] = a
		}
	}
	writeJSON(filepath.Join(outDir, "trace-"+w.Name+".json"), traceFile{
		Workload: w.Name, Seed: seed, Execs: tr.Counters.Execs,
		Spans: spans, Samples: te.tracer.samples, Replay: in.replay, PerLayer: layers,
	})
	return layers, ops, nil
}

// tailCampaign returns the campaign a workload's checkpoint tail works on:
// the campaign at the horizon, or for a solo workload — which has no
// campaign to checkpoint — what the CLI's -checkpoint runs: a 1-worker
// campaign of the same target, policy, budget and seed, run for TailVirt.
func tailCampaign(w *workload, seed int64, final *campaign.Campaign, e *env, ops *opCount) (*campaign.Campaign, error) {
	if final != nil {
		return final, nil
	}
	cp := *w
	cp.Workers, cp.Sync, cp.syncMode = 1, dur(campaign.DefaultSyncInterval), campaign.SyncAsync
	c, err := newCampaign(&cp, seed, e)
	if err != nil {
		return nil, err
	}
	err = c.RunFor(time.Duration(w.TailVirt))
	ops.check(err == nil, "tail RunFor: %v", err)
	return c, err
}

// roundTrip checkpoints c to e's store and resumes the checkpoint, timing
// both on the calling thread's clock (both run on it) with a probe of the
// host after each, and checks that the resumed copy restored the
// checkpointed coverage, corpus size and crash count.
func roundTrip(c *campaign.Campaign, name string, e *env, m *meter, ops *opCount) (c2 *campaign.Campaign, ckpt, resume timed, err error) {
	t0 := onCPU()
	e.begin(spCheckpoint)
	err = c.CheckpointTo(e.st, name)
	e.end()
	ckpt.cpu = onCPU() - t0
	ckpt.ref = m.scale(ckpt.cpu)
	ops.check(err == nil, "CheckpointTo: %v", err)
	if err != nil {
		return nil, ckpt, resume, err
	}
	t0 = onCPU()
	e.begin(spResume)
	c2, err = campaign.ResumeFrom(e.st, name)
	e.end()
	resume.cpu = onCPU() - t0
	resume.ref = m.scale(resume.cpu)
	ops.check(err == nil, "ResumeFrom: %v", err)
	if err != nil {
		return nil, ckpt, resume, err
	}
	ops.check(c2.Coverage() == c.Coverage() && c2.CorpusSize() == c.CorpusSize() && len(c2.Crashes()) == len(c.Crashes()),
		"resume restored %d edges / %d corpus / %d crashes, checkpointed %d / %d / %d",
		c2.Coverage(), c2.CorpusSize(), len(c2.Crashes()), c.Coverage(), c.CorpusSize(), len(c.Crashes()))
	return c2, ckpt, resume, nil
}

// checkpointCycles round-trips c cycles times per pass and keeps for each
// cycle index its cheapest pass — the min-merge of a latency. The resumed
// copies are dropped, so every cycle does the same work. No pass but the
// first starts after until (the zero time sets no limit).
func checkpointCycles(c *campaign.Campaign, name string, cycles, passes int, until time.Time, e *env, ops *opCount) (ckpt, resume []timed, err error) {
	ckpt, resume = make([]timed, cycles), make([]timed, cycles)
	m := newMeter()
	for p := 0; p < passes; p++ {
		if p > 0 && !until.IsZero() && !now().Before(until) {
			break
		}
		for i := 0; i < cycles; i++ {
			_, ck, re, err := roundTrip(c, name, e, m, ops)
			if err != nil {
				return nil, nil, err
			}
			if p == 0 || ck.ref < ckpt[i].ref {
				ckpt[i] = ck
			}
			if p == 0 || re.ref < resume[i].ref {
				resume[i] = re
			}
		}
	}
	return ckpt, resume, nil
}

// refs returns the reference times of ts.
func refs(ts []timed) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.ref
	}
	return out
}

// inRef converts ds, thread-clock times of calls made inside the intervals
// ts (ds[i] inside ts[i]), to reference time at each interval's own scale.
func inRef(ds []time.Duration, ts []timed) []time.Duration {
	out := make([]time.Duration, min(len(ds), len(ts)))
	for i := range out {
		out[i] = time.Duration(float64(ds[i]) * float64(ts[i].ref) / float64(ts[i].cpu))
	}
	return out
}
