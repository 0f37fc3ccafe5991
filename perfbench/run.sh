#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it from the
# repository root. Build outputs and Go caches stay in .bench_build, so
# the benchmark reads and writes only inside the checkout.
#
#   bash perfbench/run.sh --workload sealed-read --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
