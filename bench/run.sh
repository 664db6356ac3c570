#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it. Run it
# from the repository root; every argument goes to the benchmark, e.g.
#
#   bash bench/run.sh --workload resident_checkall --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and scratch data stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
