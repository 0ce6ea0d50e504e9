#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
#
#   bash benchmark/run.sh --workload report_batch --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the toolchain's temporary and config
# directories, the binary, and the run's own working directory. Outside a
# full checkout (no go.mod) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/config/go/telemetry"
# A go command that finds a fresh config directory starts a detached
# telemetry child that outlives it. Mode "off" keeps it from starting, so
# no process is left behind whether the build succeeds or fails.
echo off >"$build/config/go/telemetry/mode"

GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
GOFLAGS=-mod=vendor GOTOOLCHAIN=local \
	go build -o "$build/botscope-benchmark" ./benchmark

exec "$build/botscope-benchmark" -workdir "$build" "$@"
