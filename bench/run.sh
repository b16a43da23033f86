#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given:  bash bench/run.sh --workload steady_churn --seed 1
# --seconds 15 --trace 0.  Everything the Go toolchain writes — build
# cache, temporary files, the binary — stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
# The toolchain's telemetry counters go under the user's config directory.
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/turbine-bench" .)
cd "$root"
exec "$build/turbine-bench" "$@"
