#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it
# with the arguments given. Everything the build and the run write —
# Go's build cache, the binary, WAL and feed files — stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local CGO_ENABLED=0
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" -dir "$out/run" "$@"
