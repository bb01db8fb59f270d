#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash perfbench/bench.sh --workload serve-replay --seed 1 --seconds 20 --trace 0
#
# The Go build cache and everything else the build and the run leave
# behind stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
