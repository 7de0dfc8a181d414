#!/usr/bin/env bash
# Builds mdserve, mdrouter and the benchmark program from this checkout
# into .bench_build, then runs it with the given arguments:
#
#   bash benchmark/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build, including
# the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local
(cd "$root" && go build -o "$out/bin/" ./cmd/mdserve ./cmd/mdrouter) >&2
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .) >&2
exec "$out/bin/benchmark" -root "$root" "$@"
