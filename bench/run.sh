#!/bin/bash
# The BENCHMARK.json command: build the harness from source and run it
# from the module root. Everything the build and the run write — Go's
# build cache, its temporary files, the harness binary, the emdserve
# binary, WAL directories — stays in .bench_build/ of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -tmp "$build/tmp" "$@"
