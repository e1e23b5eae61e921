#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   benchmark/run.sh --workload fj-fine --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh [-seed N] [-workload W] [-trace] [-repeat]
#
# Everything the build and the run leave behind stays under benchmark/out/
# (build cache included), so a checkout is only ever written inside itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

out="benchmark/out"
mkdir -p "$out/build"
export GOCACHE="$root/$out/build/gocache"
export GOTOOLCHAIN=local

go build -o "$out/build/nowa-benchmark" ./benchmark

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$out/build/nowa-benchmark" -commit "$commit" -out "$out" "$@"
