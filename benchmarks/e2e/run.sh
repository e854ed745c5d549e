#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the Go build cache and the binary under
# .bench_build/, logs and results under benchmarks/e2e/out/.
#
#   bash benchmarks/e2e/run.sh --workload dtg_stride5 --seed 1 --seconds 10 --trace 0
#   bash benchmarks/e2e/run.sh -seed 1            # every workload, both passes
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$root"
# The go command prints nothing on success, so the result line stays last.
go build -C "$here" -o "$build/disc-e2e" .
exec "$build/disc-e2e" "$@"
