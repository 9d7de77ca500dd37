#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build (the Go build cache lives there too, so nothing is
# read or written outside the checkout) and runs it with the arguments
# given. Run from the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off

go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -build-dir "$build" "$@"
