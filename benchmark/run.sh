#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout's root:
#
#   bash benchmark/run.sh --workload tree-batch --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout. Without the program's sources beside it the build fails and the
# script exits non-zero.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$bench" build -o "$build/pimkd-benchmark" .
cd "$root"
exec "$build/pimkd-benchmark" --workdir "$build/work" "$@"
