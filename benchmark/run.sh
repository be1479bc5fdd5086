#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, temporary files, the binary) and all store
# data under .bench_build in the checkout. Run from anywhere:
#
#   bash benchmark/run.sh --workload ingest-mem --seed 1 --seconds 20 --trace 0
#
# In a directory that holds only the benchmark, the engine the go.mod
# replace directive points at is missing, so the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" -dir "$build" "$@"
