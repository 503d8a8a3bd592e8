#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it from the checkout root. Every build and run artifact stays under
# .bench_build/ in the checkout:
#
#   bash perfbench/run.sh --workload c2c --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# See perfbench/README.md for the workloads, metrics and flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters in
# the build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
