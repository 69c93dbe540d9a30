#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash mirabench/run.sh --workload cohort-miss --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, Go
# telemetry, binary, corpus cache, trace files) goes under .bench_build/ in
# the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=

go -C "$root/mirabench" build -o "$out/mirabench" .
exec "$out/mirabench" -root "$root" "$@"
