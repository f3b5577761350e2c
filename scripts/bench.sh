#!/usr/bin/env bash
# scripts/bench.sh — the benchmark gate (README § Benchmarking).
#
#   scripts/bench.sh <base-ref>
#
# Runs the benchmark of record (benchmark/README.md) twice on this host,
# one after the other: first on the merge base of HEAD and <base-ref>,
# checked out in a temporary git worktree, then on this checkout, local
# edits included. Both runs use seed 1. It then prints
# `benchmark/run.sh -compare` of the two result sets and exits with its
# status: 0 when every row reads ok; non-zero when an end-to-end metric
# is worse than its bound or unresolved, a result digest differs, or a
# run failed or is missing. The result sets stay in
# benchmark/out/gate-base and benchmark/out/gate-head; the worktree is
# removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh <base-ref>" >&2
    exit 2
fi
base=$(git merge-base HEAD "$1")
out="$(pwd)/benchmark/out"
tmp=$(mktemp -d)
tree="$tmp/base"
trap 'git worktree remove --force "$tree" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tree" "$base"
rm -rf "$out/gate-base" "$out/gate-head"

# A failed run leaves a partial results.json or none, and -compare
# reports either, so the gate goes on to the verdict.
echo "== base $base" >&2
(cd "$tree" && bash benchmark/run.sh -workload all -seed 1 -out "$out/gate-base") ||
    echo "bench.sh: the base run failed" >&2
echo "== head $(git rev-parse HEAD) plus local edits" >&2
bash benchmark/run.sh -workload all -seed 1 -out "$out/gate-head" ||
    echo "bench.sh: the head run failed" >&2

bash benchmark/run.sh -compare "$out/gate-base" "$out/gate-head"
