// Package repro is a from-scratch Go reproduction of "Nyx-Net: Network
// Fuzzing with Incremental Snapshots" (Schumilo et al., EuroSys 2022).
//
// The library lives under internal/: a simulated whole-system VM substrate
// (mem, device, vm), an in-guest POSIX-ish kernel and network emulation
// layer (guest, netemu), Nyx's affine-typed bytecode input model (spec,
// builder, pcap), the snapshot-placement fuzzer itself (core), the
// parallel campaign orchestrator (campaign: one broker exchange under a
// lockstep or an async schedule, one manifest version, one
// CheckpointTo/ResumeFrom pair), the pluggable checkpoint/corpus storage
// layer behind it (store: dir:// local directories and mem:// in-process
// object buckets, both with atomic whole-tree replacement), the
// multi-campaign HTTP service (service), the paper's comparison fuzzers
// (baseline), the evaluation workloads (targets, mario) and the experiment
// harness regenerating every table and figure (experiments). See README.md
// for a tour; its "Package map" section maps the paper's sections to
// packages.
//
// The repository's determinism and aliasing invariants are checked by
// running the code: seeded recordings and run-twice comparisons fail on a
// wall clock, the global rand generator or a map's order steering a
// campaign, and tests that mutate what an API returned, or reuse a buffer
// it was handed, fail on an alias. The one invariant no run shows, that
// nothing blocks while a service/store mutex is held (taking another mutex
// counts as blocking, so no lock order can deadlock), is machine-checked
// by the lockheld analyzer (analysis, driven by cmd/nyx-vet, gating CI).
// It is interprocedural: a whole-program call graph with class-hierarchy
// interface resolution carries a fixed-point may-block fact per function,
// and a diagnostic reports the full call chain to the blocking line. A
// reviewed exception is annotated in source with a reasoned //nyx:blocking
// directive, which suppresses the fact at its source and thereby untaints
// every caller; see the "Static analysis" section of README.md.
package repro
