#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build
# rambench from the checkout's source and run it with the driver's arguments.
# Everything the build writes — Go's build cache included — stays under
# .bench_build in the checkout; the first call compiles the standard library
# into that cache (about a minute), later calls find everything up to date.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/rambench" ./cmd/rambench
exec "$build/rambench" "$@"
