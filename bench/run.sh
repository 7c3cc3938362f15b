#!/usr/bin/env bash
# The benchmark driver's entry point: builds bench from source inside the
# checkout and runs it with the arguments given
# (--workload W --seed N --seconds S --trace 0|1). Everything the build
# writes — cache, module path, temporary files, the toolchain's own config
# and counters — stays under .bench_build/ in the checkout.
set -euo pipefail
# Without the module there is no program to measure: say so before the
# toolchain is started at all.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod and internal/ in $PWD: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
# A fresh config directory makes the go command start its telemetry sidecar,
# a detached child that outlives the build; with the mode file saying off it
# starts none, so no process is left behind when this script ends.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/nyx-benchmark" ./bench
exec "$build/nyx-benchmark" "$@"
