#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# into .bench_build/ and runs it with the arguments it was given:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything the go command writes (build
# cache, temporary files, telemetry counters) is pointed into .bench_build/
# so that nothing lands outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
# Telemetry off, or the first go command under a fresh XDG_CONFIG_HOME
# detaches an upload sidecar that outlives this script.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/ipls-benchmark" ./benchmark
exec "$build/ipls-benchmark" "$@"
