package core

import (
	"fmt"
	"time"

	"repro/internal/coverage"
	"repro/internal/spec"
)

// traceSignature summarizes a trace as an order-insensitive hash of its
// (edge, bucket) pairs; two executions with equal signatures exercised the
// same behaviour for trimming purposes (AFL's afl-tmin uses checksums the
// same way). It classifies hit counts with coverage.BucketOf — the same
// table the virgin map uses — so trimming can never silently change which
// bucket class an input belongs to. Walking Trace.Touched keeps the cost
// O(edges hit) per candidate, which matters now that the scheduler trims
// every queue entry on first pick.
func traceSignature(tr *coverage.Trace) uint64 {
	var sig uint64
	bits := tr.Bits()
	for _, idx := range tr.Touched() {
		h := uint64(idx)<<8 | uint64(coverage.BucketOf(bits[idx]))
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 29
		sig += h
	}
	return sig
}

// Trim shrinks an input while preserving its coverage signature: first it
// drops whole ops, then it bisects packet payloads. Trimming shortens the
// queue's inputs, which matters doubly under incremental snapshots (shorter
// prefixes are cheaper to re-create).
func (f *Fuzzer) Trim(in *spec.Input) (*spec.Input, error) {
	out, _, err := f.trimMeasured(in)
	return out, err
}

// trimMeasured is Trim plus a measured exec-time estimate for the result:
// the virtual cost of the last execution that validated the returned input
// (the final accepted candidate's run, or the reference run when nothing
// could be dropped). The scheduler uses it to refresh QueueEntry.ExecTime
// after a trim — the pre-trim estimate describes an input that no longer
// exists.
//
// Candidates are built in one spare input, which trades places with cur when
// the candidate is accepted: neither is anyone else's, and a trim allocates
// the two and nothing per candidate.
func (f *Fuzzer) trimMeasured(in *spec.Input) (*spec.Input, time.Duration, error) {
	cur, cand := in.Clone(), in.Clone()
	cur.SnapshotAt, cand.SnapshotAt = -1, -1
	// f.trace is idle between two of the fuzzer's own executions, which is
	// when a trim runs, and the reference signature is taken before the
	// first candidate overwrites it: a trim needs no trace of its own.
	t0 := f.Agent.Now()
	if _, err := f.Agent.RunFromRoot(cur, &f.trace); err != nil {
		return nil, 0, fmt.Errorf("core: trim reference run: %w", err)
	}
	curTime := f.Agent.Now() - t0
	want := traceSignature(&f.trace)

	// Pass 1: drop ops, back to front (later ops depend on earlier
	// outputs, never the other way around).
	for i := len(cur.Ops) - 1; i >= 0 && len(cur.Ops) > 1; i-- {
		cand.Ops = append(append(cand.Ops[:0], cur.Ops[:i]...), cur.Ops[i+1:]...)
		if f.Spec.Validate(cand) != nil {
			continue
		}
		t0 := f.Agent.Now()
		res, err := f.Agent.RunFromRoot(cand, &f.trace)
		if err != nil {
			return nil, 0, err
		}
		f.execs++
		if !res.Crashed && traceSignature(&f.trace) == want {
			cur, cand = cand, cur
			curTime = f.Agent.Now() - t0
		}
	}

	// Pass 2: halve payloads while the signature holds.
	for i := range cur.Ops {
		for len(cur.Ops[i].Data) > 1 {
			cand.Ops = append(cand.Ops[:0], cur.Ops...)
			cand.Ops[i].Data = cand.Ops[i].Data[:len(cand.Ops[i].Data)/2]
			t0 := f.Agent.Now()
			res, err := f.Agent.RunFromRoot(cand, &f.trace)
			if err != nil {
				return nil, 0, err
			}
			f.execs++
			if res.Crashed || traceSignature(&f.trace) != want {
				break
			}
			cur, cand = cand, cur
			curTime = f.Agent.Now() - t0
		}
	}
	return cur, curTime, nil
}

// MinimizeCrash shrinks a crashing input while it still crashes in the same
// bucket — the triage step §5.7's responsible-disclosure workflow needs.
func (f *Fuzzer) MinimizeCrash(in *spec.Input) (*spec.Input, error) {
	cur := in.Clone()
	cur.SnapshotAt = -1
	res, err := f.Agent.RunFromRoot(cur, &f.trace)
	if err != nil {
		return nil, err
	}
	if !res.Crashed {
		return nil, fmt.Errorf("core: input does not crash")
	}
	id := CrashID{res.Crash.Kind, res.Crash.Site}

	stillCrashes := func(cand *spec.Input) (bool, error) {
		if f.Spec.Validate(cand) != nil {
			return false, nil
		}
		r, err := f.Agent.RunFromRoot(cand, &f.trace)
		if err != nil {
			return false, err
		}
		f.execs++
		return r.Crashed && CrashID{r.Crash.Kind, r.Crash.Site} == id, nil
	}

	// Drop ops back to front.
	for i := len(cur.Ops) - 1; i >= 0 && len(cur.Ops) > 1; i-- {
		cand := cur.Clone()
		cand.Ops = append(cand.Ops[:i], cand.Ops[i+1:]...)
		ok, err := stillCrashes(cand)
		if err != nil {
			return nil, err
		}
		if ok {
			cur = cand
		}
	}
	// Shrink payloads.
	for i := range cur.Ops {
		for len(cur.Ops[i].Data) > 1 {
			cand := cur.Clone()
			cand.Ops[i].Data = cand.Ops[i].Data[:len(cand.Ops[i].Data)-1]
			ok, err := stillCrashes(cand)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			cur = cand
		}
	}
	return cur, nil
}
