#!/usr/bin/env bash
# Builds remapd-bench from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload train-vgg11 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# files) stays under .bench_build at the root of the checkout. Outside a
# full checkout (no ../go.mod for the replace directive) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOENV=off
export GOWORK=off
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local

go -C bench build -o "$out/remapd-bench" ./cmd/remapd-bench
exec "$out/remapd-bench" "$@"
