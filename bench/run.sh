#!/usr/bin/env bash
# Builds the capbench driver from source and runs it, passing every
# argument through:
#
#   bash bench/run.sh --workload capped-node --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary and trace
# files all live under .bench_build/, so nothing is written outside the
# checkout. Without the repository's own sources next to bench/, the build
# fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$(dirname "$0")" && go build -o "$out/capbench" ./capbench)

# setup_s counts the time from here to main, which covers loading the
# binary and package initialization.
export CAPBENCH_T0="${EPOCHREALTIME:-$(date +%s.%N)}"
exec "$out/capbench" "$@"
