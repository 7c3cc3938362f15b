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
// The repository's determinism, aliasing and locking invariants are
// machine-checked by a repo-specific analyzer suite
// (analysis, driven by cmd/nyx-vet, gating CI). The suite is
// interprocedural — a whole-program call graph with class-hierarchy
// interface resolution carries fixed-point per-function facts, and
// diagnostics report the full call chain to the offending line: virtual-
// time packages must not reach wall clocks or the global rand generator
// through any callee, nor leak map iteration order into output; exported
// APIs must not return or retain aliased slices (the PR-4 DirtyPages bug
// class); nothing may block while a broker/service/store mutex is held,
// and taking another mutex counts as blocking, so no lock order can
// deadlock (lockheld). Deliberate exceptions are annotated in source with
// reasoned //nyx: directives, which suppress the fact at its source and
// thereby untaint every caller; see the "Static analysis" section of
// README.md.
package repro
