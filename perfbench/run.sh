#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash perfbench/run.sh --workload all` from the repository root.
# Build outputs, the Go build cache and run scratch stay in .bench_build.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOWORK=off GOTOOLCHAIN=local
go build -C perfbench -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
