// Command nyx-net runs a fuzzing campaign against one of the bundled
// targets, mirroring the five-step workflow of §5.4: pick a target, the
// generic raw-packet spec and seeds are bundled with it, and the fuzzer
// runs against the launched VM.
//
// With -workers N > 1 the campaign runs as N parallel fuzzer instances
// (each in its own VM, with an RNG derived from the master seed)
// orchestrated by the corpus broker in internal/campaign: workers exchange
// globally fresh inputs every -sync of virtual time, crashes are
// deduplicated across workers, and coverage is aggregated. A campaign
// checkpoints its corpus, crashes and global coverage to -checkpoint DIR
// when it finishes, and -resume continues from such a directory (the
// stored target/workers/policy/seed are authoritative).
//
// The queue scheduler is selectable with -sched: "afl" (the default) runs
// the AFL-style corpus scheduler — favored-entry culling, per-entry energy
// budgets, a splice stage and lazy trim — while "rr" restores the flat
// round-robin rotation (the scheduling-ablation baseline). On top of the
// AFL scheduler, -power selects an AFLfast-style power schedule for
// long-horizon campaigns (fast | coe | explore | lin | quad | adaptive):
// energy is reshaped over pick counts and per-edge pick frequencies, with
// the energy ceiling lifted past the baseline once the queue frontier
// drains; "adaptive" starts as explore and flips to coe when the frontier
// drains.
//
// Incremental snapshots are pooled by default (-snapbudget bytes per
// worker): snapshot slots are keyed by input-prefix digest, survive
// queue-entry switches, are shared across entries with common prefixes,
// and evict LRU/cheapest-first under the budget. -snapbudget 0 schedules
// the paper's model on the same slot mechanism: one snapshot per round,
// released when the round ends.
//
// Checkpoints go through the pluggable store layer (internal/store): with
// -store URL set, -checkpoint NAME names a tree in that store (dir://PATH
// for a local directory, mem://BUCKET for the in-process object store)
// instead of a plain directory, so a campaign checkpointed on one backend
// can be migrated and resumed from another. SIGINT stops a campaign
// gracefully at the next sync boundary and still writes the final
// checkpoint.
//
// With -serve ADDR the binary becomes a multi-campaign HTTP service
// (internal/service): campaigns are submitted, paused, resumed, observed
// and deleted over a JSON API, auto-checkpoint to -store every -ckpt-every
// of virtual time, and are recovered from the store at startup. See the
// README's "Service mode" section for the API.
//
// -cpuprofile FILE and -memprofile FILE write a CPU profile of the campaign
// and a profile of everything it allocated, for go tool pprof.
//
// Usage:
//
//	nyx-net -target lightftp -policy aggressive -time 30s -seed 1
//	nyx-net -target lightftp -sched rr -time 30s -seed 1
//	nyx-net -target tinydtls -power fast -time 5m -seed 1
//	nyx-net -target lightftp -workers 4 -seed 1
//	nyx-net -target lightftp -workers 4 -checkpoint /tmp/camp -time 30s
//	nyx-net -resume -checkpoint /tmp/camp -time 30s
//	nyx-net -store dir:///var/nyx -checkpoint camp -workers 4 -time 30s
//	nyx-net -serve 127.0.0.1:8090 -store dir:///var/nyx
//	nyx-net -target bftpd -time 16s -cpuprofile cpu.prof -memprofile mem.prof
//	nyx-net -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/targets"
)

func main() {
	var (
		target   = flag.String("target", "lightftp", "target to fuzz (see -list)")
		policy   = flag.String("policy", "aggressive", "snapshot policy: none | balanced | aggressive")
		sched    = flag.String("sched", "afl", "queue scheduler: afl (favored culling, energy, splice, trim) | rr (flat round-robin)")
		power    = flag.String("power", "off", "AFLfast-style power schedule for long campaigns: off | fast | coe | explore | lin | quad | adaptive (explore until the frontier drains, then coe)")
		snapbud  = flag.Int64("snapbudget", experiments.DefaultSnapBudget, "snapshot-pool byte budget per worker (prefix-keyed incremental snapshots; 0 keeps one snapshot per scheduling round, released when the round ends)")
		duration = flag.Duration("time", 30*time.Second, "virtual campaign duration")
		seed     = flag.Int64("seed", 1, "campaign RNG seed (master seed with -workers)")
		asan     = flag.Bool("asan", false, "enable AddressSanitizer-like checking")
		list     = flag.Bool("list", false, "list available targets and exit")
		crashDir = flag.String("crash-dir", "", "directory to write crashing inputs (bytecode) to")
		workers  = flag.Int("workers", 1, "parallel fuzzer instances (corpus-synced campaign when > 1)")
		syncIvl  = flag.Duration("sync", campaign.DefaultSyncInterval, "virtual time between corpus broker syncs (lockstep round / async epoch length)")
		syncMode = flag.String("sync-mode", "async", "corpus broker sync: async (barrier-free epochs, one exchange at a time) | lockstep (deterministic rounds)")
		ckpt     = flag.String("checkpoint", "", "campaign checkpoint directory, or tree name when -store is set (written on exit)")
		resume   = flag.Bool("resume", false, "resume the campaign stored in -checkpoint")
		storeURL = flag.String("store", "", "checkpoint store URL: dir://PATH | mem://BUCKET (routes -checkpoint/-resume and service-mode persistence)")
		serve    = flag.String("serve", "", "run as a multi-campaign HTTP service on this address (host:port) instead of one-shot fuzzing")
		ckptIvl  = flag.Duration("ckpt-every", service.DefaultCheckpointEvery, "service mode: auto-checkpoint cadence in campaign virtual time (negative disables)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the campaign to this file when it ends")
	)
	flag.Parse()

	if *list {
		for _, name := range targets.Names() {
			info, _ := targets.Lookup(name)
			fmt.Printf("%-14s %s\n", name, info.Port)
		}
		return
	}

	if *serve != "" {
		runServe(*serve, *storeURL, *ckptIvl)
		return
	}

	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fatalf("%v", err)
	}
	sc, err := core.ParseSched(*sched)
	if err != nil {
		fatalf("%v", err)
	}
	pw, err := core.ParsePower(*power)
	if err != nil {
		fatalf("%v", err)
	}
	if pw != core.PowerOff && sc == core.SchedRoundRobin {
		fatalf("-power %s requires -sched afl (round-robin has no energy function to reshape)", pw)
	}

	mode, err := campaign.ParseSyncMode(*syncMode)
	if err != nil {
		fatalf("%v", err)
	}
	defer startProfiles(*cpuProf, *memProf)()

	if *workers > 1 || *resume || *ckpt != "" {
		runParallel(parallelOpts{
			target: *target, policy: pol, sched: sc, power: pw, duration: *duration, seed: *seed,
			asan: *asan, workers: *workers, sync: *syncIvl, snapBudget: *snapbud, mode: mode,
			checkpoint: *ckpt, resume: *resume, crashDir: *crashDir, storeURL: *storeURL,
		})
		return
	}

	inst, err := targets.Launch(*target, targets.LaunchConfig{Asan: *asan})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("[*] launched %s on %s (root snapshot taken)\n", *target, inst.Info.Port)

	f := core.New(inst.Agent, inst.Spec, core.Options{
		Policy:     pol,
		Sched:      sc,
		Power:      pw,
		Seeds:      inst.Seeds(),
		Rand:       rand.New(rand.NewSource(*seed)),
		Dict:       inst.Info.Dict,
		SnapBudget: *snapbud,
	})
	start := time.Now()
	if err := f.RunFor(*duration); err != nil {
		fatalf("campaign: %v", err)
	}

	fmt.Printf("[*] campaign done: %v virtual in %v wall\n", f.Elapsed().Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Printf("    execs:          %d (%.1f/virtual-second, %d from incremental snapshots)\n",
		f.Execs(), f.ExecsPerSecond(), f.SnapshotExecs())
	if ms := inst.M.Stats(); ms.RootRestores+ms.IncRestores > 0 {
		fmt.Printf("    restores:       %d in %v wall (%.0f ns each, zero-copy path)\n",
			ms.RootRestores+ms.IncRestores, ms.RestoreWall.Round(time.Millisecond),
			float64(ms.RestoreWall.Nanoseconds())/float64(ms.RootRestores+ms.IncRestores))
	}
	if f.PoolEnabled() {
		st := f.PoolStats()
		fmt.Printf("    snapshot pool:  %d hits / %d misses, %d evictions, %d slots, %.1f MiB peak (budget %.1f MiB), %d full-prefix re-execs\n",
			st.Hits, st.Misses, st.Evictions, st.Slots,
			float64(st.PeakBytes)/(1<<20), float64(*snapbud)/(1<<20), f.FullPrefixReexecs())
	}
	fmt.Printf("    branch coverage: %d edges, %d queue entries\n", f.Coverage(), len(f.Queue))
	fmt.Printf("    crashes:        %d unique\n", len(f.Crashes))
	reportCrashes(f.Crashes, *crashDir)
}

type parallelOpts struct {
	target     string
	policy     core.Policy
	sched      core.Sched
	power      core.Power
	duration   time.Duration
	seed       int64
	asan       bool
	workers    int
	sync       time.Duration
	snapBudget int64
	mode       campaign.SyncMode
	checkpoint string
	resume     bool
	crashDir   string
	storeURL   string
}

func runParallel(o parallelOpts) {
	// With -store, -checkpoint names a tree in that backend; without it,
	// a plain directory, which is a tree in the dir:// store of its parent.
	var st store.Storer
	ckptName := o.checkpoint
	var err error
	switch {
	case o.storeURL != "":
		st, err = store.Open(o.storeURL)
	case o.checkpoint != "":
		st, ckptName, err = store.ForDir(o.checkpoint)
	}
	if err != nil {
		fatalf("%v", err)
	}
	var c *campaign.Campaign
	if o.resume {
		if o.checkpoint == "" {
			fatalf("-resume requires -checkpoint DIR")
		}
		if c, err = campaign.ResumeFrom(st, ckptName); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("[*] resumed campaign from %s: %d workers, %d edges, %d crashes\n",
			o.checkpoint, c.Workers(), c.Coverage(), len(c.Crashes()))
	} else {
		c, err = campaign.New(campaign.Config{
			Target:       o.target,
			Workers:      o.workers,
			Policy:       o.policy,
			Sched:        o.sched,
			Power:        o.power,
			Seed:         o.seed,
			SyncInterval: o.sync,
			SnapBudget:   o.snapBudget,
			Asan:         o.asan,
			SyncMode:     o.mode,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("[*] launched %d workers against %s (master seed %d, %s sync)\n",
			c.Workers(), o.target, o.seed, c.SyncMode())
	}

	// SIGINT stops gracefully: the campaign quiesces at the next sync
	// boundary (lockstep round or async epoch), the final checkpoint
	// below still runs.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		if _, ok := <-sig; ok {
			fmt.Println("[*] interrupt: stopping at the next sync boundary")
			c.Stop()
		}
	}()

	start := time.Now()
	if err := c.RunFor(o.duration); err != nil {
		fatalf("campaign: %v", err)
	}
	signal.Stop(sig)
	close(sig)
	if c.Stopped() {
		fmt.Printf("[*] campaign interrupted after %v virtual/worker\n", c.Elapsed().Round(time.Millisecond))
	}

	ss := c.SyncStats()
	fmt.Printf("[*] campaign done: %v virtual/worker in %v wall\n",
		c.Elapsed().Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Printf("    broker sync:    %s mode, %d exchanges, %v wall in broker\n",
		ss.Mode, ss.Epochs, ss.SyncWall.Round(time.Millisecond))
	fmt.Printf("    broker lock:    %d acquisitions, %d contended, %d imports dropped\n",
		ss.ShardAcquisitions, ss.ShardContended, ss.ImportsDropped)
	fmt.Printf("    execs:          %d total (%.1f/virtual-second aggregate)\n",
		c.Execs(), c.ExecsPerSecond())
	if ps := c.PoolStats(); ps.Hits+ps.Misses > 0 {
		fmt.Printf("    snapshot pool:  %d hits / %d misses, %d evictions, %d slots, %.1f MiB pooled, %d full-prefix re-execs\n",
			ps.Hits, ps.Misses, ps.Evictions, ps.Slots, float64(ps.Bytes)/(1<<20), c.FullPrefixReexecs())
	}
	fmt.Printf("    branch coverage: %d edges aggregated, %d broker corpus entries (%d deduped)\n",
		c.Coverage(), c.CorpusSize(), c.Deduped())
	for _, st := range c.PerWorker() {
		fmt.Printf("      worker %d: %d execs, %d edges, %d queue, %d crashes\n",
			st.ID, st.Execs, st.Coverage, st.Queue, st.Crashes)
	}
	fmt.Printf("    crashes:        %d unique across workers\n", len(c.Crashes()))
	reportCrashes(c.Crashes(), o.crashDir)

	if o.checkpoint != "" {
		if err := c.CheckpointTo(st, ckptName); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("[*] checkpoint written to %s (resume with -resume -checkpoint %s)\n",
			o.checkpoint, o.checkpoint)
	}
}

// runServe runs the multi-campaign HTTP service until SIGINT, recovering
// stored campaigns at startup and checkpointing live ones on shutdown.
func runServe(addr, storeURL string, ckptEvery time.Duration) {
	var st store.Storer
	if storeURL != "" {
		var err error
		if st, err = store.Open(storeURL); err != nil {
			fatalf("%v", err)
		}
	}
	m := service.New(service.Config{Store: st, CheckpointEvery: ckptEvery})
	if st != nil {
		// A stored campaign that does not decode is reported and left
		// out; the others are served.
		recovered, err := m.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nyx-net: recovering campaigns: %v\n", err)
		}
		for _, r := range recovered {
			fmt.Printf("[*] recovered campaign %s: %s, %v virtual, %d edges, %d crashes\n",
				r.ID, r.Spec.Target, r.Elapsed.Round(time.Millisecond), r.Edges, r.Crashes)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("%v", err)
	}
	srv := &http.Server{Handler: service.Handler(m)}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Println("[*] interrupt: checkpointing campaigns and shutting down")
		srv.Close()
	}()
	storeDesc := "no store (campaigns are not persisted)"
	if st != nil {
		storeDesc = "store " + st.URL()
	}
	fmt.Printf("[*] serving campaign API on http://%s (%s)\n", ln.Addr(), storeDesc)
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	if err := m.Close(); err != nil {
		fatalf("shutdown checkpoint: %v", err)
	}
}

// startProfiles starts the CPU profile, if one was asked for, and returns the
// function that ends it and writes the allocation profile: every object
// allocated since the process started, not only the live ones, since what a
// campaign allocates per execution is what drives its garbage collector.
func startProfiles(cpuFile, memFile string) (stop func()) {
	check := func(flag string, err error) {
		if err != nil {
			fatalf("%s: %v", flag, err)
		}
	}
	var cpu *os.File
	if cpuFile != "" {
		var err error
		cpu, err = os.Create(cpuFile)
		check("-cpuprofile", err)
		check("-cpuprofile", pprof.StartCPUProfile(cpu))
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			check("-cpuprofile", cpu.Close())
		}
		if memFile != "" {
			mem, err := os.Create(memFile)
			check("-memprofile", err)
			check("-memprofile", pprof.Lookup("allocs").WriteTo(mem, 0))
			check("-memprofile", mem.Close())
		}
	}
}

func reportCrashes(crashes []core.Crash, crashDir string) {
	for i, c := range crashes {
		fmt.Printf("      #%d [%s] %s (found at %v after %d execs)\n",
			i, c.Kind, c.Msg, c.FoundAt.Round(time.Millisecond), c.Execs)
		if crashDir != "" {
			path := fmt.Sprintf("%s/crash-%03d.nyx", crashDir, i)
			if err := os.WriteFile(path, spec.Serialize(c.Input), 0o644); err != nil {
				fatalf("writing %s: %v", path, err)
			}
			fmt.Printf("         written to %s\n", path)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nyx-net: "+format+"\n", args...)
	os.Exit(1)
}
