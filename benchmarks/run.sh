#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds benchmarks/e2e and runs
# it with the arguments given, from the root of a checkout.
#
#   bash benchmarks/run.sh --workload batch_mixed --seed 7 --seconds 20 --trace 0
#
# Everything the go tool writes (build cache, module cache, temporary files,
# telemetry) and the binary go under .bench_build/ in the checkout, so the
# run reads and writes nothing outside it. A rebuild with nothing changed
# takes about half a second.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -C benchmarks -o "$build/e2e" ./e2e
exec "$build/e2e" -workdir "$build/work" "$@"
