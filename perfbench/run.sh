#!/usr/bin/env bash
# Builds the akb server and the benchmark from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-cold --seed 7 --seconds 25 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache
# included, stays under .bench_build in that directory, and the Go command
# is kept offline and on the installed toolchain.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

go build -o "$out/akb" ./cmd/akb
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -akb "$out/akb" -work "$out" "$@"
