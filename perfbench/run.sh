#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (binary, Go build and module caches, temporary
# files, Go's per-user config) stays in .bench_build under the root.
# Arguments go to the benchmark unchanged:
#
#   bash perfbench/run.sh --workload solve-stress --seed 1 --seconds 36 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTELEMETRY=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
