#!/usr/bin/env bash
# Builds the load generator and runs it from the checkout root. Everything
# the run writes — the go build cache, the binaries, the generated
# snapshots — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
export GOFLAGS=-buildvcs=false
mkdir -p "$root/.bench_build/bin"
go build -C benchmark -o "$root/.bench_build/bin/benchmark" .
exec "$root/.bench_build/bin/benchmark" "$@"
