#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash kbench/run.sh --workload patch_churn --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the binary, and the
# traced run's span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/kbench" build -o "$out/kbench" .
cd "$root"
exec "$out/kbench" --out "$out/kbench-trace" "$@"
