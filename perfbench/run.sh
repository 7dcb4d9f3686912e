#!/usr/bin/env bash
# Builds the benchmark from the sources of the tree it sits in and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload q5a-closed --seed 2023 --seconds 30 --trace 0
#
# Build output, work state, records and traces stay inside the tree, in
# .bench_build/ and .bench_out/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the Go toolchain's cache, module and config files inside the tree,
# and never let it reach for a network or a different toolchain.
HOME="$build/home" XDG_CONFIG_HOME="$build/config" GOCACHE="$build/gocache" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off \
	GOSUMDB=off go -C "$root/perfbench" build -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
