#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it.
# Everything the toolchain writes (build cache, temporary files, its own
# telemetry counters) lands in .bench_build/ at the checkout root.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/corropt-bench" .)
cd "$root"
exec "$build/corropt-bench" "$@"
