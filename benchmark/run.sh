#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the
# repository:
#
#   bash benchmark/run.sh --workload sim-hotpath --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (Go build cache, temporary files,
# the binary) goes under .bench_build/ in the current directory, so
# nothing outside the checkout is read or written.
set -euo pipefail

root=$(pwd)
src="$root/benchmark"
if [[ ! -f "$root/go.mod" || ! -f "$src/go.mod" ]]; then
	echo "benchmark/run.sh: run from the root of the repository (go.mod and benchmark/go.mod not found under $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/go-mod"
# The go command keeps its telemetry counters and its env file in the
# user configuration directory.
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

# go build is a no-op when the binary is up to date.
(cd "$src" && go build -buildvcs=false -o "$build/netclone-benchmark" .) >&2
exec "$build/netclone-benchmark" "$@"
