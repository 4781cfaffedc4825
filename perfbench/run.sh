#!/usr/bin/env bash
# Builds perfbench and the nucaserve binary from this checkout's
# source, then runs perfbench. Run from the repository root:
#
#   bash perfbench/run.sh --workload membound --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/nucaserve" ./cmd/nucaserve

exec "$out/perfbench" -nucaserve "$out/nucaserve" -work "$out/tmp" "$@"
