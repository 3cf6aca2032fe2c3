#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing the
# arguments through. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and the traced runs' spans stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
