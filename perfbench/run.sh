#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload compile-suite --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product (binary, Go build
# cache, the go command's config and telemetry files) stays under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/vaqbench" .)
exec "$build/vaqbench" "$@"
