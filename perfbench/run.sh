#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write goes under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" -spec "$root/BENCHMARK.json" -out "$out/perfbench" "$@"
