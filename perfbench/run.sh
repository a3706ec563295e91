#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it, passing
# every argument on:
#
#   bash perfbench/run.sh --workload serve-run --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" "$@"
