package main

import (
	"math/rand"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/snappool"
	"repro/internal/spec"
	"repro/internal/targets"
)

// The replay stage attributes time below the span boundaries: it calls the
// public functions of spec, coverage, snappool and guest on the traced run's
// final corpus, in batches, and keeps each function's cheapest batch. Those
// per-op costs times the traced run's call counts estimate how core.step's
// self time and netemu's self time split further (layers.go).

const (
	replayBatches   = 5
	replayMaxCorpus = 1500
	replayMerges    = 8 // Virgin.Merge calls timed per trace (first finds new bits, the rest do not)
)

// replaySink keeps the compiler from dropping the replayed calls.
var replaySink int

// replayed holds ns per op, keyed by the metric name it reports under.
type replayed map[string]float64

// markerFor places the snapshot marker where the aggressive policy starts:
// after the last data-carrying op (half way in an input without one).
func markerFor(s *spec.Spec, in *spec.Input) int {
	for i := len(in.Ops) - 1; i >= 0; i-- {
		if n := in.Ops[i].Node; int(n) < len(s.Nodes) && s.Nodes[n].HasData {
			return i + 1
		}
	}
	return len(in.Ops) / 2
}

// minBatch runs fn over the corpus replayBatches times and returns the
// cheapest batch's ns per input, on the calling thread's clock in reference
// time.
func minBatch(corpus []*spec.Input, fn func(i int, in *spec.Input)) float64 {
	best := time.Duration(1<<63 - 1)
	m := newMeter()
	for b := 0; b < replayBatches; b++ {
		t0 := onCPU()
		for i, in := range corpus {
			fn(i, in)
		}
		best = min(best, m.scale(onCPU()-t0))
	}
	return float64(best) / float64(len(corpus))
}

// clockOverhead is what one begin/end pair of the tracer costs the code
// around it (two clock reads and the bookkeeping), cheapest batch of 1000.
func clockOverhead() time.Duration {
	t := newTracer()
	best := time.Duration(1<<63 - 1)
	m := newMeter()
	for b := 0; b < replayBatches; b++ {
		t0 := onCPU()
		for i := 0; i < 1000; i++ {
			t.begin(spSaveState)
			t.end()
		}
		best = min(best, m.scale(onCPU()-t0))
	}
	return best / 1000
}

func replay(w *workload, seed int64, corpus []*spec.Input) (replayed, error) {
	if len(corpus) > replayMaxCorpus {
		// Evenly spaced, so early short inputs and late long ones both count.
		step := float64(len(corpus)) / replayMaxCorpus
		cut := make([]*spec.Input, replayMaxCorpus)
		for i := range cut {
			cut[i] = corpus[int(float64(i)*step)]
		}
		corpus = cut
	}
	out := replayed{}
	if len(corpus) == 0 {
		return out, nil
	}
	e := &env{tracer: newTracer()}
	name, err := e.targetName(w)
	if err != nil {
		return nil, err
	}
	hub.drain()
	inst, err := targets.Launch(name, targets.LaunchConfig{})
	if err != nil {
		return nil, err
	}
	tt := hub.drain()[0]
	sp := inst.Spec

	// spec and snappool: pure functions of the input.
	mut := spec.NewMutator(sp, rand.New(rand.NewSource(seed)))
	mut.Dict = inst.Info.Dict
	marks := make([]int, len(corpus))
	for i, in := range corpus {
		marks[i] = markerFor(sp, in)
	}
	out["spec.mutate_ns_per_op"] = minBatch(corpus, func(_ int, in *spec.Input) { replaySink += len(mut.Mutate(in).Ops) })
	out["spec.mutate_suffix_ns_per_op"] = minBatch(corpus, func(i int, in *spec.Input) { replaySink += len(mut.MutateSuffix(in, marks[i]).Ops) })
	out["spec.splice_ns_per_op"] = minBatch(corpus, func(i int, in *spec.Input) {
		replaySink += len(mut.Splice(in, corpus[(i+1)%len(corpus)]).Ops)
	})
	out["spec.serialize_ns_per_op"] = minBatch(corpus, func(_ int, in *spec.Input) { replaySink += len(spec.Serialize(in)) })
	out["spec.clone_ns_per_op"] = minBatch(corpus, func(_ int, in *spec.Input) { replaySink += len(in.Clone().Ops) })
	out["spec.validate_ns_per_op"] = minBatch(corpus, func(_ int, in *spec.Input) {
		if sp.Validate(in) == nil {
			replaySink++
		}
	})
	out["snappool.prefix_digest_ns_per_op"] = minBatch(corpus, func(i int, in *spec.Input) {
		d := snappool.PrefixDigest(in, marks[i])
		replaySink += int(d[0])
	})

	// coverage: merge and bucket the trace each input really produces.
	var tr coverage.Trace
	var merge, bucket time.Duration
	var hits []coverage.BucketHit
	host := newMeter()
	for b := 0; b < replayBatches; b++ {
		var virgin coverage.Virgin
		var m, k time.Duration
		sw := startWatch()
		for _, in := range corpus {
			if _, err := inst.Agent.RunFromRoot(in, &tr); err != nil {
				return nil, err
			}
			t0 := now()
			for i := 0; i < replayMerges; i++ {
				if fresh, _ := virgin.Merge(&tr); fresh {
					replaySink++
				}
			}
			t1 := now()
			hits = tr.Bucketed()
			t2 := now()
			m += t1.Sub(t0)
			k += t2.Sub(t1)
			replaySink += len(hits)
		}
		// The two calls are too short for a thread-clock read each: they
		// are timed on the wall clock and scaled by the batch's reference
		// time over its wall time.
		wall, own := sw.stop()
		scale := float64(host.scale(own)) / float64(wall)
		m = time.Duration(float64(m) * scale)
		k = time.Duration(float64(k) * scale)
		if b == 0 || m < merge {
			merge = m
		}
		if b == 0 || k < bucket {
			bucket = k
		}
	}
	out["coverage.merge_ns_per_op"] = float64(merge) / float64(len(corpus)*replayMerges)
	out["coverage.bucketed_ns_per_op"] = float64(bucket) / float64(len(corpus))

	// guest: drive the kernel's three entry points directly, as netemu's
	// interpreter does, and take the decorated target's spans back out.
	g, err := replayGuest(inst, tt, corpus)
	if err != nil {
		return nil, err
	}
	for k, v := range g {
		out[k] = v
	}
	return out, nil
}

// guestCall accumulates one kernel entry point over a batch.
type guestCall struct {
	wall, target time.Duration
	calls, spans uint64
}

func (c *guestCall) nsPerCall(overhead time.Duration) float64 {
	if c.calls == 0 {
		return 0
	}
	ns := float64(c.wall-c.target) - float64(c.spans)*float64(overhead)
	return max(ns, 0) / float64(c.calls)
}

func replayGuest(inst *targets.Instance, tt *tracedTarget, corpus []*spec.Input) (replayed, error) {
	k, sp, t := inst.K, inst.Spec, tt.t
	targetTime := func() (d time.Duration, n uint64) {
		for kind := spOnConnect; kind <= spLoadState; kind++ {
			d += t.agg[kind].Total
			n += t.agg[kind].Count
		}
		return d, n
	}
	timed := func(c *guestCall, fn func()) {
		d0, n0 := targetTime()
		t0 := now()
		fn()
		c.wall += now().Sub(t0)
		d1, n1 := targetTime()
		c.target += d1 - d0
		c.spans += n1 - n0
		c.calls++
	}
	// drive runs one input's ops against the kernel; a target crash (a
	// *guest.CrashError panic) ends the input, as it ends an exec.
	drive := func(in *spec.Input, conn, deliver, closec *guestCall) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*guest.CrashError); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		var conns []*guest.Conn
		for _, op := range in.Ops {
			if int(op.Node) >= len(sp.Nodes) {
				continue
			}
			nt := sp.Nodes[op.Node]
			var c *guest.Conn
			if nt.Kind != spec.KindConnect {
				if len(op.Args) == 0 || int(op.Args[0]) >= len(conns) {
					continue
				}
				c = conns[op.Args[0]]
			}
			switch nt.Kind {
			case spec.KindConnect:
				timed(conn, func() {
					if nc, _, err := k.NewConnection(nt.Port); err == nil {
						conns = append(conns, nc)
					}
				})
			case spec.KindPacket:
				if c = k.Conn(c.ID); c != nil && !c.Closed {
					timed(deliver, func() { k.Deliver(c, op.Data) }) //nolint:errcheck // closed conns are filtered above
				}
			case spec.KindClose:
				if c = k.Conn(c.ID); c != nil {
					timed(closec, func() { k.CloseConn(c) })
				}
			}
		}
		return false
	}

	const slot = 1 // above mem.LegacySlot; nothing else uses this machine's slots
	var best [5]guestCall
	host := newMeter()
	for b := 0; b < replayBatches; b++ {
		var cur [5]guestCall
		sw := startWatch()
		for _, in := range corpus {
			if err := inst.M.RestoreRoot(); err != nil {
				return nil, err
			}
			if drive(in, &cur[0], &cur[1], &cur[2]) {
				continue
			}
			// One hydrate, then one syncToMemory, on the state this input
			// built: snapshot it, restore (which marks the struct form
			// stale), read the state (Processes decodes it) and write it
			// back (ResetCorruption, whose own hydrate is now a no-op).
			if err := inst.M.SnapshotHypercall(slot); err != nil {
				return nil, err
			}
			if err := inst.M.RestoreIncrementalSlot(slot); err != nil {
				return nil, err
			}
			timed(&cur[3], func() { replaySink += k.Processes() })
			timed(&cur[4], k.ResetCorruption)
			inst.M.DropSlot(slot)
		}
		// Per-call times are wall; scale them by the batch's reference time
		// over its wall time.
		wall, own := sw.stop()
		scale := float64(host.scale(own)) / float64(wall)
		for i := range cur {
			cur[i].wall = time.Duration(float64(cur[i].wall) * scale)
			cur[i].target = time.Duration(float64(cur[i].target) * scale)
			if b == 0 || cur[i].wall-cur[i].target < best[i].wall-best[i].target {
				best[i] = cur[i]
			}
		}
	}
	oh := clockOverhead()
	// Hydrate and sync are reported whole, the target's LoadState and
	// SaveState share included: they are the cost of one state round trip.
	hydrate, sync := best[3], best[4]
	hydrate.target, sync.target = 0, 0
	return replayed{
		"guest.new_connection_ns_per_call": best[0].nsPerCall(oh),
		"guest.deliver_ns_per_call":        best[1].nsPerCall(oh),
		"guest.close_conn_ns_per_call":     best[2].nsPerCall(oh),
		"guest.hydrate_ns_per_call":        hydrate.nsPerCall(oh),
		"guest.state_sync_ns_per_call":     hydrate.nsPerCall(oh) + sync.nsPerCall(oh),
	}, nil
}
