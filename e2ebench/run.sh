#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash e2ebench/run.sh --workload table1_bounded --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache) stays under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C e2ebench build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" --workdir "$out" "$@"
