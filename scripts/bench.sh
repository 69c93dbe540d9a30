#!/usr/bin/env bash
# bench.sh — run the hot-path benchmarks with -benchmem and archive the
# output as BENCH_<sha>.json (a JSON envelope wrapping the raw
# `go test -bench` text, so results stay machine-readable and diffable
# across commits).
#
# Usage:
#   scripts/bench.sh [outdir]          # default outdir: the repo root
#   BENCH_FULL=1 scripts/bench.sh      # also run the repo-root experiment
#                                      # benches (150-day corpus, slow)
#
# The default outdir is the repository root so that results are committed
# alongside the change they measure: every perf PR runs this script and
# checks in its BENCH_<sha>.json (sha = HEAD at measurement time), giving
# the repo a benchmark trajectory reviewers can diff. CI validates the
# committed envelopes with `scripts/benchjson -validate`.
#
# The default set is the cheap paired benchmarks: the codec allocation
# comparisons in internal/raslog (alloc_reduction metric), the
# filter-sweep speedup comparison in internal/core (speedup metric), the
# incident-consumer comparison BenchmarkIncidentConsumers/{rows,columns}
# in internal/core (E16 and E21 with their FATAL/WARN folds: the row
# oracles against the column path, speedup metric — DESIGN.md §9), the
# whole-table kernel pass Benchmark_WholeTableScan/{jobs,events} in
# internal/core (the fused kernel set through scan.Run at one worker,
# bypassing the per-Dataset memo that FusedScan hits), the
# OrderStats_{PerAnalysis,Shared} order-statistics comparison in
# internal/core (E3/E5/E8/E13/E17/E20 on a paper-sized job log: the walks
# they replaced against one cold core.JobOrders, speedup metric), the
# LoadCSV/LoadPack corpus-load comparison in internal/pack (speedup
# metric; LoadPack also reports live_MB, the heap a loaded dataset keeps
# live, live_B/event, the same per RAS event, and mapped_MB, the snapshot
# mapping its columns are adopted from, which the heap does not count),
# the FitLegacy/FitSample model-selection comparison and the
# CensoredWeibull_{PerJob,Distinct} E23 survival-fit comparison in
# internal/dist (speedup metrics), the profile fusion comparison
# BenchmarkProfile/{walk,fused} in internal/core (every FusedProfile field
# through its pre-fusion walk against one FusedScan — DESIGN.md §13) and
# the two reference classifications BenchmarkClassification/{by-exit,joint}
# beside it, the cold index build BenchmarkIndexStats in internal/core (all
# nine selection-index dimensions of a cold 90-day Dataset, built
# concurrently — DESIGN.md §14), the accessor comparison BenchmarkAccessors/{walk,fused} in
# internal/experiments (the Env accessors layered on the incident and MTTI
# passes against fresh walks), the
# cold-Env suite run Benchmark_RunAll_Fused and E6's layer time
# Benchmark_E6_DistributionFits (fits, KS/AD and the polish ablation on a
# fresh Env per iteration) at the repo root, the
# cohort-query pushdown comparison
# Benchmark_CohortSweep_{Materialize,Where} (speedup metric, measured
# against a median materialize reference pass — DESIGN.md §14), and the
# serving-layer cache comparison Benchmark_CohortServe_{Cold,Warm}
# (speedup metric, measured against a median cold reference pass —
# DESIGN.md §15; the warm floor is 20×).
set -euo pipefail

cd "$(dirname "$0")/.."
outdir="${1:-.}"
mkdir -p "$outdir"

sha="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
out="$outdir/BENCH_${sha}.json"

pkgs=(./internal/raslog/ ./internal/core/ ./internal/pack/ ./internal/dist/)
if [[ "${BENCH_FULL:-0}" == "1" ]]; then
  pkgs+=(.)
fi

raw="$(go test -bench=. -benchmem -count=1 -run '^$' "${pkgs[@]}")"
if [[ "${BENCH_FULL:-0}" != "1" ]]; then
  # The full run covers the repo root already; otherwise run just the
  # paired suite and cohort comparisons with a bounded iteration count.
  raw+=$'\n'"$(go test -bench 'Benchmark_(RunAll_Fused|E6_DistributionFits|CohortSweep_(Materialize|Where)|CohortServe_(Cold|Warm))$' -benchmem -benchtime=10x -count=1 -run '^$' .)"
fi
raw+=$'\n'"$(go test -bench '^BenchmarkAccessors$' -benchmem -count=1 -run '^$' ./internal/experiments/)"
echo "$raw"
go run ./scripts/benchjson -out "$out" -sha "$sha" <<<"$raw"
echo "wrote $out"
