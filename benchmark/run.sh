#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload write-durable --seed 1 --seconds 16 --trace 0
#
# Everything it writes — the binary, Go's build cache, scratch files of a
# run — stays under the checkout: .bench_build/ and .bench_tmp-*/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$here" -buildvcs=false -o "$build/benchmark" .
exec "$build/benchmark" "$@"
