#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# on. Run it from the repository root:
#
#   bash bench/run.sh --workload fig3_dense_500 --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the go command's config and telemetry files, and
# the binary live in .bench_build/ under the current directory, so a run
# writes nothing outside it. The build finishes before the benchmark
# starts, so no compile time is measured.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .) >&2
exec "$build/bench" -work "$build" "$@"
