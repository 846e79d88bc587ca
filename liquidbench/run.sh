#!/usr/bin/env bash
# Builds liquidbench from the checkout it sits in and runs it from the
# checkout's root, passing every argument through:
#
#   bash liquidbench/run.sh --workload tune-cold --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache and toolchain configuration all live
# under .bench_build, so the build reads and writes nothing outside the
# checkout. The build fails, and so does this script, when the checkout
# holds only the benchmark and not the liquidarch module it measures.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd liquidbench && go build -o "$build/liquidbench" .)
exec "$build/liquidbench" "$@"
