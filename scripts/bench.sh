#!/usr/bin/env bash
# scripts/bench.sh — the tracked benchmark pipeline (README § Benchmarking).
#
# Runs the alloc-reporting micro-benchmarks (engine, BenchmarkEngineDense
# among them; switch pipeline, samplers, per-figure experiment
# benchmarks), then meters the full
# experiment suite through netclone-bench -benchjson and writes the next
# BENCH_<n>.json in the repository root. Committing that file is how the
# perf trajectory is recorded — and `compare` is how it is enforced: a
# fresh throwaway snapshot is diffed against the latest committed
# BENCH_<n>.json, failing on >5% hot-path events/sec loss or any
# hot-path allocs/op growth (warnings only when the snapshots come from
# different hosts).
#
# Every snapshot also carries the emu loopback rate probe: the
# sustained request rate a real 2-server loopback NetClone cluster
# holds under an open-loop rate ladder, measured on the portable
# one-syscall-per-packet path and (where compiled in) the batched
# recvmmsg/sendmmsg path. compare holds the batched rate above the
# 40k req/s floor — ten times the 4k req/s the single-syscall backend
# operated at — and fails a regression of more than one of the
# ladder's 2x rungs (the probe quantizes in rungs, so a tighter
# ratchet would flake on every rung boundary).
#
# Usage:
#   scripts/bench.sh               # micro-benchmarks + BENCH_<n>.json
#   scripts/bench.sh micro         # micro-benchmarks only
#   scripts/bench.sh snapshot      # BENCH_<n>.json only
#   scripts/bench.sh compare       # regression gate vs latest BENCH_<n>.json
#
# Environment knobs:
#   BENCH=<regex>      micro-benchmark filter        (default: the hot-path set)
#   BENCHTIME=<t>      go test -benchtime            (default: 1s)
#   EXPERIMENTS=<ids>  netclone-bench -run argument  (default: all;
#                      compare defaults to fig7a — the gate is the
#                      hot-path probe, experiments are context)
#   PARALLEL=<n>       snapshot parallelism; 1 gives attributable
#                      per-point allocation counts   (default: 1)
#   REPORT_ONLY=1      compare: print regressions but exit 0 (CI uses
#                      this on pull requests, enforcing on main)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
# ClusterSteadyState also matches ClusterSteadyStateFaulted (the
# fault-path micro-benchmark, 0 allocs/op with active fault windows),
# ClusterSteadyStateMultiRack (the N-rack fabric path, 0 allocs/op
# across three racks of heterogeneous uplinks),
# ClusterSteadyStateCongested (the finite-queue path, 0 allocs/op with
# a congested three-rack fabric), and ClusterSteadyStateTraced (the flight recorder sampling every 64th
# request on the fabric path — Record writes into a preallocated ring,
# so it must hold the same 0 allocs/op). Engine also matches
# EngineFarFuture (1e5 pending events rescheduling Exp(5.5 ms) ahead:
# the calendar's far tier, 0 allocs/op) and EngineDense (~2k pending
# events at ~300 per simulated us, the 64-rack point's density: short
# bucket segments, splices, and every tier in use, 0 allocs/op).
# BuildFabricXL is construction
# alone: a 64-rack, 102,400-client fabric built and torn down through a
# 1 us window (~2k allocs/op; three per client before slab allocation).
bench_re="${BENCH:-Engine|SwitchPipeline|ClusterSteadyState|SwitchProcess|SimulatedMillisecond|BuildFabricXL|ZipfRank|KVMixNext|PoissonGap|SummarizeFrozen}"
benchtime="${BENCHTIME:-1s}"
experiments="${EXPERIMENTS:-all}"
parallel="${PARALLEL:-1}"

# latest_snapshot prints the highest-numbered committed BENCH_<n>.json,
# or nothing when none exist. Numeric sort handles gaps and multi-digit
# n; the trailing || true keeps `set -euo pipefail` from aborting the
# caller when the glob matches nothing (compare prints its own error).
latest_snapshot() {
    ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1 || true
}

if [ "$mode" = "all" ] || [ "$mode" = "micro" ]; then
    echo "== micro-benchmarks (-bench '$bench_re' -benchtime $benchtime)" >&2
    go test -run '^$' -bench "$bench_re" -benchmem -benchtime "$benchtime" ./...
fi

if [ "$mode" = "all" ] || [ "$mode" = "snapshot" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
    echo "== experiment snapshot -> $out (-run $experiments -quick -parallel $parallel)" >&2
    go run ./cmd/netclone-bench -run "$experiments" -quick -parallel "$parallel" \
        -benchjson "$out" >/dev/null
    echo "wrote $out" >&2
fi

if [ "$mode" = "compare" ]; then
    baseline="$(latest_snapshot)"
    if [ -z "$baseline" ]; then
        echo "bench.sh compare: no committed BENCH_<n>.json baseline" >&2
        exit 1
    fi
    # The gate is the sequential hot-path probe; a single quick
    # experiment keeps the fresh snapshot cheap enough for CI while
    # still exercising the metered pipeline end to end.
    cmp_experiments="${EXPERIMENTS:-fig7a}"
    fresh="$(mktemp -t netclone-bench-XXXXXX.json)"
    trap 'rm -f "$fresh"' EXIT
    echo "== fresh snapshot -> $fresh (-run $cmp_experiments -quick -parallel 1)" >&2
    go run ./cmd/netclone-bench -run "$cmp_experiments" -quick -parallel 1 \
        -benchjson "$fresh" >/dev/null
    report_flag=""
    [ "${REPORT_ONLY:-0}" = "1" ] && report_flag="-report-only"
    echo "== compare vs $baseline" >&2
    go run ./cmd/netclone-bench -compare "$fresh" -baseline "$baseline" $report_flag
fi
