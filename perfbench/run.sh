#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and run
# artifact under .bench_build in the directory it is started from (the
# repository root):
#
#   bash perfbench/run.sh --workload explore-1m --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
