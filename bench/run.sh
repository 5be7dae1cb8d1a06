#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, for example:
#
#   bash bench/run.sh --workload uniform-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the stores the workloads create all
# live under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -work "$build/work" "$@"
