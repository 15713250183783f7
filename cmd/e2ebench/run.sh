#!/usr/bin/env bash
# Builds e2ebench from source into .bench_build/ (the only place this
# benchmark writes) and runs it with the driver's arguments. Run from
# the root of a checkout: bash cmd/e2ebench/run.sh --workload ht_write
# --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
# Keep the go command's own files (build cache, work directory,
# telemetry counters) inside the checkout, and never reach for the
# network.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local
go -C "$root/cmd/e2ebench" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
