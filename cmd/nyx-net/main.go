// Command nyx-net runs a fuzzing campaign against one of the bundled
// targets, mirroring the five-step workflow of §5.4: pick a target, the
// generic raw-packet spec and seeds are bundled with it, and the fuzzer
// runs against the launched VM.
//
// Every run is a campaign (internal/campaign), and its flags fill one
// campaign.Config: -workers N runs N parallel fuzzer instances (each in its
// own VM, with an RNG derived from the master seed) orchestrated by the
// corpus broker, and the default -workers 1 is a one-worker campaign on the
// same path, which exchanges once, when the run ends. Workers exchange
// globally fresh inputs every -sync of virtual time, crashes are
// deduplicated across workers, and coverage is aggregated. -checkpoint DIR
// only adds a checkpoint of the corpus, crashes and global coverage to DIR
// when the campaign finishes; the run itself is the same with or without
// it. -resume continues from such a directory (the stored configuration is
// authoritative). A flag value that names no policy, scheduler, power
// schedule or sync mode, or a configuration campaign.Config.Validate
// refuses, is a usage error: nyx-net prints its usage and exits with
// status 2.
//
// The queue scheduler is selectable with -sched: "afl" (the default) runs
// the AFL-style corpus scheduler — favored-entry culling, per-entry energy
// budgets, a splice stage and lazy trim — while "rr" restores the flat
// round-robin rotation (the scheduling-ablation baseline). On top of the
// AFL scheduler, -power coe selects AFLfast's cut-off exponential power
// schedule for long-horizon campaigns: entries whose every edge is picked
// more often than the mean drop to the minimum budget, the rest decay with
// their pick count, and the energy ceiling lifts past the baseline once the
// queue frontier drains.
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
// of virtual time, and are recovered from the store at startup — a tree a
// one-shot run wrote there with -store URL -checkpoint campaigns/NAME too,
// with the configuration its header records. See the README's "Service
// mode" section for the API.
//
// -cpuprofile FILE and -memprofile FILE write a CPU profile of the campaign
// and a profile of everything it allocated, for go tool pprof.
//
// Usage:
//
//	nyx-net -target lightftp -policy aggressive -time 30s -seed 1
//	nyx-net -target lightftp -sched rr -time 30s -seed 1
//	nyx-net -target tinydtls -power coe -time 5m -seed 1
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/targets"
)

func main() {
	var cfg campaign.Config
	flag.StringVar(&cfg.Target, "target", "lightftp", "target to fuzz (see -list)")
	flag.TextVar(&cfg.Policy, "policy", core.PolicyAggressive, "snapshot policy: none | balanced | aggressive")
	flag.TextVar(&cfg.Sched, "sched", core.SchedAFL, "queue scheduler: afl (favored culling, energy, splice, trim) | rr (flat round-robin)")
	flag.TextVar(&cfg.Power, "power", core.PowerOff, "AFLfast-style power schedule for long campaigns: off | coe (cut off over-exercised entries, decay the rest by pick count)")
	flag.Int64Var(&cfg.SnapBudget, "snapbudget", campaign.DefaultSnapBudget, "snapshot-pool byte budget per worker (prefix-keyed incremental snapshots; 0 keeps one snapshot per scheduling round, released when the round ends)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "campaign master seed")
	flag.BoolVar(&cfg.Asan, "asan", false, "enable AddressSanitizer-like checking")
	flag.IntVar(&cfg.Workers, "workers", 1, "parallel fuzzer instances, synced through the corpus broker")
	flag.DurationVar(&cfg.SyncInterval, "sync", campaign.DefaultSyncInterval, "virtual time between corpus broker syncs (lockstep round / async epoch length)")
	flag.TextVar(&cfg.SyncMode, "sync-mode", campaign.SyncAsync, "corpus broker sync: async (barrier-free epochs, one exchange at a time) | lockstep (deterministic rounds)")
	var (
		duration = flag.Duration("time", 30*time.Second, "virtual campaign duration")
		list     = flag.Bool("list", false, "list available targets and exit")
		crashDir = flag.String("crash-dir", "", "directory to write crashing inputs (bytecode) to")
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

	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nyx-net: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	defer startProfiles(*cpuProf, *memProf)()
	run(cfg, *duration, *ckpt, *resume, *storeURL, *crashDir)
}

// run runs the campaign cfg describes — or, with resume, the one stored in
// checkpoint — for d of virtual time per worker, and checkpoints it when
// checkpoint is set.
func run(cfg campaign.Config, d time.Duration, checkpoint string, resume bool, storeURL, crashDir string) {
	// With -store, -checkpoint names a tree in that backend; without it,
	// a plain directory, which is a tree in the dir:// store of its parent.
	var st store.Storer
	ckptName := checkpoint
	var err error
	switch {
	case storeURL != "":
		st, err = store.Open(storeURL)
	case checkpoint != "":
		st, ckptName, err = store.ForDir(checkpoint)
	}
	if err != nil {
		fatalf("%v", err)
	}
	var c *campaign.Campaign
	if resume {
		if checkpoint == "" {
			fatalf("-resume requires -checkpoint DIR")
		}
		if c, err = campaign.ResumeFrom(st, ckptName); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("[*] resumed campaign from %s: %d workers, %d edges, %d crashes\n",
			checkpoint, c.Workers(), c.Coverage(), len(c.Crashes()))
	} else {
		if c, err = campaign.New(cfg); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("[*] launched %d workers against %s (master seed %d, %s sync)\n",
			c.Workers(), cfg.Target, cfg.Seed, cfg.SyncMode)
	}
	cfg = c.Config()

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
	if err := c.RunFor(d); err != nil {
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
	fmt.Printf("    broker sync:    %s mode, %d exchanges, %d imports dropped, %v wall in broker\n",
		ss.Mode, ss.Epochs, ss.ImportsDropped, ss.SyncWall.Round(time.Millisecond))
	workers := c.PerWorker()
	var snapExecs, restores uint64
	var restoreWall time.Duration
	for _, ws := range workers {
		snapExecs += ws.SnapshotExecs
		restores += ws.Restores
		restoreWall += ws.RestoreWall
	}
	fmt.Printf("    execs:          %d total (%.1f/virtual-second aggregate, %d from incremental snapshots)\n",
		c.Execs(), c.ExecsPerSecond(), snapExecs)
	if restores > 0 {
		fmt.Printf("    restores:       %d in ~%v wall (%.0f ns each, timed on one in 64, zero-copy path)\n",
			restores, restoreWall.Round(time.Millisecond), float64(restoreWall.Nanoseconds())/float64(restores))
	}
	if ps := c.PoolStats(); ps.Hits+ps.Misses > 0 {
		fmt.Printf("    snapshot pool:  %d hits / %d misses, %d evictions, %d slots, %.1f MiB peak (budget %.1f MiB per worker), %d full-prefix re-execs\n",
			ps.Hits, ps.Misses, ps.Evictions, ps.Slots, float64(ps.PeakBytes)/(1<<20),
			float64(cfg.SnapBudget)/(1<<20), c.FullPrefixReexecs())
	}
	fmt.Printf("    branch coverage: %d edges aggregated, %d broker corpus entries (%d deduped)\n",
		c.Coverage(), c.CorpusSize(), c.Deduped())
	for _, st := range workers {
		fmt.Printf("      worker %d: %d execs, %d edges, %d queue, %d crashes\n",
			st.ID, st.Execs, st.Coverage, st.Queue, st.Crashes)
	}
	fmt.Printf("    crashes:        %d unique across workers\n", len(c.Crashes()))
	reportCrashes(c.Crashes(), crashDir)

	if checkpoint != "" {
		if err := c.CheckpointTo(st, ckptName); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("[*] checkpoint written to %s (resume with -resume -checkpoint %s)\n",
			checkpoint, checkpoint)
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
