package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// procStats are process-level totals; two readings bracket a repetition.
type procStats struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU                        float64 // seconds
	cpu                          time.Duration
}

func readProc() procStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	p := procStats{
		allocs:     samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		gcCycles:   samples[2].Value.Uint64(),
		gcCPU:      samples[3].Value.Float64(),
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

func (p procStats) sub(q procStats) procStats {
	return procStats{
		allocs: p.allocs - q.allocs, allocBytes: p.allocBytes - q.allocBytes,
		gcCycles: p.gcCycles - q.gcCycles, gcCPU: p.gcCPU - q.gcCPU, cpu: p.cpu - q.cpu,
	}
}

// perLayerSpecs lists every per-layer metric with its unit and the
// direction that is better, in the order they print. BENCHMARK.json's
// per_layer list is this list. Per-layer metrics have no bound.
var perLayerSpecs = [][3]string{
	{"core.step_self_ns_per_exec", "ns", "lower"},
	{"core.unattributed_ns_per_exec", "ns", "lower"},
	{"core.root_execs", "count", "lower"},
	{"core.snapshot_execs", "count", "higher"},
	{"core.full_prefix_reexecs", "count", "lower"},
	{"core.queue_len", "count", "higher"},
	{"core.crashes_unique", "count", "higher"},
	{"core.allocs_per_exec", "count", "lower"},
	{"core.alloc_bytes_per_exec", "B", "lower"},
	{"core.gc_cycles", "count", "lower"},
	{"core.gc_cpu_share", "ratio", "lower"},
	{"core.cpu_s", "s", "lower"},
	{"spec.mutate_ns_per_op", "ns", "lower"},
	{"spec.mutate_suffix_ns_per_op", "ns", "lower"},
	{"spec.splice_ns_per_op", "ns", "lower"},
	{"spec.serialize_ns_per_op", "ns", "lower"},
	{"spec.clone_ns_per_op", "ns", "lower"},
	{"spec.validate_ns_per_op", "ns", "lower"},
	{"spec.est_ns_per_exec", "ns", "lower"},
	{"coverage.merge_ns_per_op", "ns", "lower"},
	{"coverage.bucketed_ns_per_op", "ns", "lower"},
	{"coverage.est_ns_per_exec", "ns", "lower"},
	{"snappool.lookup_ns_per_exec", "ns", "lower"},
	{"snappool.hit_ratio", "ratio", "higher"},
	{"snappool.digest_hit_ratio", "ratio", "higher"},
	{"snappool.slots_created", "count", "lower"},
	{"snappool.evictions", "count", "lower"},
	{"snappool.peak_bytes", "B", "lower"},
	{"snappool.prefix_digest_ns_per_op", "ns", "lower"},
	{"snappool.est_ns_per_exec", "ns", "lower"},
	{"netemu.self_ns_per_exec", "ns", "lower"},
	{"netemu.interp_ns_per_exec", "ns", "lower"},
	{"netemu.ops_per_exec", "count", "lower"},
	{"netemu.packets_per_exec", "count", "lower"},
	{"netemu.run_from_root_calls", "count", "lower"},
	{"netemu.run_from_snapshot_calls", "count", "higher"},
	{"netemu.run_creating_slot_calls", "count", "lower"},
	{"guest.new_connection_ns_per_call", "ns", "lower"},
	{"guest.deliver_ns_per_call", "ns", "lower"},
	{"guest.close_conn_ns_per_call", "ns", "lower"},
	{"guest.hydrate_ns_per_call", "ns", "lower"},
	{"guest.state_sync_ns_per_call", "ns", "lower"},
	{"guest.state_sync_calls_per_exec", "count", "lower"},
	{"guest.est_ns_per_exec", "ns", "lower"},
	{"targets.handler_ns_per_exec", "ns", "lower"},
	{"targets.save_state_ns_per_exec", "ns", "lower"},
	{"targets.load_state_ns_per_exec", "ns", "lower"},
	{"vm.restore_ns_per_exec", "ns", "lower"},
	{"vm.root_restores", "count", "lower"},
	{"vm.slot_restores", "count", "higher"},
	{"vm.slot_creates", "count", "lower"},
	{"mem.cow_break_ratio", "ratio", "lower"},
	{"mem.eager_hit_rate", "ratio", "higher"},
	{"mem.pages_eager_copied_per_exec", "count", "lower"},
	{"device.sectors_eager_copied", "count", "lower"},
	{"campaign.sync_wall_share", "ratio", "lower"},
	{"campaign.sync_epochs", "count", "higher"},
	{"campaign.sync_us_per_epoch", "us", "lower"},
	{"campaign.imports_dropped", "count", "lower"},
	{"campaign.shard_contended_ratio", "ratio", "lower"},
	{"campaign.deduped", "count", "lower"},
	{"campaign.corpus_size", "count", "higher"},
	{"campaign.edges", "count", "higher"},
	{"campaign.worker_execs_spread", "ratio", "lower"},
	{"campaign.wall_speedup_x", "x", "higher"},
	{"campaign.checkpoint_tree_ms_p50", "ms", "lower"},
	{"campaign.resume_tree_ms_p50", "ms", "lower"},
	{"campaign.checkpoint_bytes", "B", "lower"},
	{"campaign.checkpoint_files", "count", "lower"},
	{"store.mem_puttree_ms_p50", "ms", "lower"},
	{"store.mem_gettree_ms_p50", "ms", "lower"},
	{"store.dir_puttree_ms_p50", "ms", "lower"},
	{"store.dir_gettree_ms_p50", "ms", "lower"},
	{"bench.layer_sum_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	traced   *repResult          // the traced repetition
	agg      [nSpanKinds]spanAgg // its spans, all goroutines merged
	proc     procStats           // process totals over one untraced repetition
	untraced *repResult          // that repetition
	replay   replayed
	workers  int

	// Checkpoint cycles of the traced run against mem:// (the workload's own
	// cycles, or its tail): whole-call and store-call times per cycle.
	ckpt, resume, memPut, memGet []time.Duration
	// The extra cycles against a temporary dir:// store.
	dirPut, dirGet []time.Duration
	ckptBytes      int
	ckptFiles      int

	speedupX    float64 // this workload's execs/s over its 1-worker solo twin's
	overheadPct float64
	// quietShare is the traced repetition's reference time over its raw
	// wall time. Spans are timed on the wall clock (a thread-clock read is a
	// system call, too dear per span); steal and host slowness hit them in
	// proportion, so every span-derived time is scaled by this share.
	quietShare float64
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sub(a, b []time.Duration) []time.Duration {
	out := make([]time.Duration, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

// perLayer computes the per-layer table. Every quantity "per exec" divides
// by the traced repetition's total execs, warm-up included, because spans
// and counters cover the whole repetition.
func perLayer(in layerInputs) map[string]metric {
	c := in.traced.Counters
	execs := float64(c.Execs)
	perExec := func(d time.Duration) float64 {
		if execs == 0 {
			return 0
		}
		return float64(d) * in.quietShare / execs
	}
	a := &in.agg
	rp := in.replay

	var execSelf time.Duration
	var execCalls uint64
	for k := spRunRoot; k <= spRunSuffix; k++ {
		execSelf += a[k].Self
		execCalls += a[k].Count
	}
	handlers := a[spOnConnect].Self + a[spOnPacket].Self + a[spOnDisconnect].Self
	events := a[spOnConnect].Count + a[spOnPacket].Count + a[spOnDisconnect].Count
	targetSelf := handlers + a[spSaveState].Self + a[spLoadState].Self
	var netemuSelf time.Duration // zero in a campaign, whose agents cannot be decorated
	if execCalls > 0 {
		netemuSelf = execSelf - c.VM.RestoreWall
	}
	snapCalls := a[spRunSnapshot].Count + a[spRunSuffix].Count
	created := c.Pool.Misses // every counted miss creates a slot (kept, evicted later, or used once)

	// Replay estimates: per-op cost times the traced run's call counts.
	// Every root-path exec mutates once (seed imports and trim runs are a
	// small excess); every snapshot exec mutates a suffix; each scheduling
	// round clones its base and each queued entry is cloned, serialized and
	// bucketed once. Splices have no public count and stay in the residual.
	queued := float64(c.QueueLen)
	steps := float64(a[spStep].Count)
	specEst := rp["spec.mutate_ns_per_op"]*float64(a[spRunRoot].Count) +
		rp["spec.mutate_suffix_ns_per_op"]*float64(snapCalls) +
		rp["spec.clone_ns_per_op"]*(steps+queued) +
		rp["spec.serialize_ns_per_op"]*queued
	covEst := rp["coverage.merge_ns_per_op"]*execs + rp["coverage.bucketed_ns_per_op"]*queued
	poolEst := float64(c.Pool.LookupWall)*in.quietShare + rp["snappool.prefix_digest_ns_per_op"]*float64(c.Pool.Misses)
	guestEst := rp["guest.new_connection_ns_per_call"]*float64(a[spOnConnect].Count) +
		rp["guest.deliver_ns_per_call"]*float64(a[spOnPacket].Count) +
		rp["guest.close_conn_ns_per_call"]*float64(a[spOnDisconnect].Count) +
		rp["guest.hydrate_ns_per_call"]*float64(c.SnapExecs) // the replayed calls start from the root state; a slot's is bigger
	div := func(x float64) float64 {
		if execs == 0 {
			return 0
		}
		return x / execs
	}
	stepSelf := perExec(a[spStep].Self)
	layerSum := 0.0
	if a[spStep].Total > 0 {
		layerSum = 100 * float64(a[spStep].Self+netemuSelf+targetSelf+c.VM.RestoreWall) / float64(a[spStep].Total)
	}

	v := map[string]float64{
		"core.step_self_ns_per_exec":    stepSelf,
		"core.unattributed_ns_per_exec": 0,
		"core.root_execs":               float64(c.RootExecs),
		"core.snapshot_execs":           float64(c.SnapExecs),
		"core.full_prefix_reexecs":      float64(c.FullPrefixReexecs),
		"core.queue_len":                queued,
		"core.crashes_unique":           float64(c.CrashesUnique),

		"spec.est_ns_per_exec":     div(specEst),
		"coverage.est_ns_per_exec": div(covEst),

		"snappool.lookup_ns_per_exec": perExec(c.Pool.LookupWall),
		"snappool.hit_ratio":          ratio(c.Pool.Hits, c.Pool.Hits+c.Pool.Misses),
		"snappool.digest_hit_ratio":   ratio(c.Pool.DigestHits, c.Pool.Hits),
		"snappool.slots_created":      float64(created),
		"snappool.evictions":          float64(c.Pool.Evictions),
		"snappool.peak_bytes":         float64(c.Pool.PeakBytes),
		"snappool.est_ns_per_exec":    div(poolEst),

		"netemu.self_ns_per_exec":         perExec(netemuSelf),
		"netemu.interp_ns_per_exec":       0,
		"netemu.ops_per_exec":             div(float64(events)),
		"netemu.packets_per_exec":         div(float64(a[spOnPacket].Count)),
		"netemu.run_from_root_calls":      float64(a[spRunRoot].Count),
		"netemu.run_from_snapshot_calls":  float64(snapCalls),
		"netemu.run_creating_slot_calls":  float64(a[spRunCreate].Count),
		"guest.state_sync_calls_per_exec": div(float64(a[spSaveState].Count)),
		"guest.est_ns_per_exec":           div(guestEst),

		"targets.handler_ns_per_exec":    perExec(handlers),
		"targets.save_state_ns_per_exec": perExec(a[spSaveState].Self),
		"targets.load_state_ns_per_exec": perExec(a[spLoadState].Self),

		"vm.restore_ns_per_exec":          perExec(c.VM.RestoreWall),
		"vm.root_restores":                float64(c.VM.RootRestores),
		"vm.slot_restores":                float64(c.VM.IncRestores),
		"vm.slot_creates":                 float64(c.VM.IncCreates),
		"mem.cow_break_ratio":             ratio(c.VM.PagesCoWBroken, c.VM.PagesCoWBroken+c.VM.PagesEagerCopied),
		"mem.eager_hit_rate":              ratio(c.VM.EagerHits, c.VM.EagerHits+c.VM.EagerMisses),
		"mem.pages_eager_copied_per_exec": div(float64(c.VM.PagesEagerCopied)),
		"device.sectors_eager_copied":     float64(c.VM.SectorsEagerCopied),

		"campaign.sync_epochs":            float64(c.Sync.Epochs),
		"campaign.sync_us_per_epoch":      0,
		"campaign.imports_dropped":        float64(c.Sync.ImportsDropped),
		"campaign.shard_contended_ratio":  ratio(c.Sync.ShardContended, c.Sync.ShardAcquisitions),
		"campaign.deduped":                float64(c.Deduped),
		"campaign.corpus_size":            float64(c.CorpusSize),
		"campaign.edges":                  float64(in.traced.Edges),
		"campaign.worker_execs_spread":    ratio(c.WorkerExecsMax-c.WorkerExecsMin, c.WorkerExecsMax),
		"campaign.wall_speedup_x":         in.speedupX,
		"campaign.checkpoint_tree_ms_p50": ms(percentile(sub(in.ckpt, in.memPut), 50)),
		"campaign.resume_tree_ms_p50":     ms(percentile(sub(in.resume, in.memGet), 50)),
		"campaign.checkpoint_bytes":       float64(in.ckptBytes),
		"campaign.checkpoint_files":       float64(in.ckptFiles),

		"store.mem_puttree_ms_p50": ms(percentile(in.memPut, 50)),
		"store.mem_gettree_ms_p50": ms(percentile(in.memGet, 50)),
		"store.dir_puttree_ms_p50": ms(percentile(in.dirPut, 50)),
		"store.dir_gettree_ms_p50": ms(percentile(in.dirGet, 50)),

		"bench.layer_sum_pct":      layerSum,
		"bench.trace_overhead_pct": in.overheadPct,
	}
	// The two residuals exist only where the spans they subtract from do
	// (solo runs): a campaign's agents and scheduler cannot be decorated.
	if a[spStep].Count > 0 {
		v["core.unattributed_ns_per_exec"] = stepSelf - div(specEst+covEst+poolEst)
		v["netemu.interp_ns_per_exec"] = perExec(netemuSelf) - div(guestEst)
	}
	if c.Sync.Epochs > 0 {
		v["campaign.sync_us_per_epoch"] = float64(c.Sync.SyncWall.Microseconds()) * in.quietShare / float64(c.Sync.Epochs)
	}
	// Async sync wall is summed over workers, each on its own goroutine;
	// lockstep sync runs on the caller between rounds.
	if wall := a[spRunFor].Total; wall > 0 {
		share := float64(c.Sync.SyncWall) / float64(wall)
		if c.Sync.Mode.String() == "async" {
			share /= float64(in.workers)
		}
		v["campaign.sync_wall_share"] = share
	}
	// Process-level numbers, over the untraced repetition.
	if n := float64(in.untraced.Counters.Execs); n > 0 {
		v["core.allocs_per_exec"] = float64(in.proc.allocs) / n
		v["core.alloc_bytes_per_exec"] = float64(in.proc.allocBytes) / n
	}
	v["core.gc_cycles"] = float64(in.proc.gcCycles)
	v["core.cpu_s"] = in.proc.cpu.Seconds()
	if in.proc.cpu > 0 {
		v["core.gc_cpu_share"] = in.proc.gcCPU / in.proc.cpu.Seconds()
	}
	for k, x := range rp {
		v[k] = x
	}

	out := make(map[string]metric, len(perLayerSpecs))
	for _, nu := range perLayerSpecs {
		out[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	return out
}
