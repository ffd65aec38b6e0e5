#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository
# root, whatever directory it is started from. Everything the build
# writes (binary, build cache, the toolchain's telemetry counters) stays
# inside the checkout, under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
XDG_CONFIG_HOME="$build/config" go build -C benchmark -ldflags "-X main.commit=$commit" -o "$build/dfmbench" .
exec "$build/dfmbench" "$@"
