#!/bin/sh
# bench_compare.sh — benchmark the working tree, optionally against a
# baseline git ref, and feed both runs to benchstat when it is installed
# (raw outputs are printed otherwise; nothing is downloaded).
#
# End-to-end and per-layer performance numbers come from the benchmark
# harness, perfbench/run.sh; this script is for ad-hoc Go benchmark
# comparisons and the CI race smoke. The results/BENCH_*.json files are
# frozen records of earlier measurements.
#
# Usage:
#   scripts/bench_compare.sh [-r ref] [-c count] [-p pattern] [-s]
#
#   -r ref      baseline git ref to compare against (default: no baseline,
#               bench the working tree only)
#   -c count    benchmark repetitions per side (default 5)
#   -p pattern  -bench regexp (default: every benchmark)
#   -s          smoke mode: one iteration of the matched benchmarks under
#               the race detector at -cpu 1,2, so the parallel generation,
#               solve, sweep, and simulation paths run both the degenerate
#               and a multi-worker schedule in CI. No baseline, no timing.
set -eu
cd "$(dirname "$0")/.."

ref=""
count=5
pattern="."
smoke=0
while getopts "r:c:p:s" opt; do
    case "$opt" in
    r) ref=$OPTARG ;;
    c) count=$OPTARG ;;
    p) pattern=$OPTARG ;;
    s) smoke=1 ;;
    *) echo "usage: $0 [-r ref] [-c count] [-p pattern] [-s]" >&2; exit 2 ;;
    esac
done

if [ "$smoke" = 1 ]; then
    # -timeout 30m: one race-instrumented iteration of the solver benches
    # can exceed go test's default 10m on a small CI box.
    exec go test -race -run '^$' -bench "$pattern" -benchtime 1x -cpu 1,2 -timeout 30m ./...
fi

bench() {
    go test -run '^$' -bench "$pattern" -benchtime 1x -count "$count" ./...
}

new_out=$(mktemp)
trap 'rm -f "$new_out" "${old_out:-}"' EXIT

echo "== bench: working tree =="
bench | tee "$new_out"

if [ -z "$ref" ]; then
    exit 0
fi

old_out=$(mktemp)
worktree=$(mktemp -d)
git worktree add --detach "$worktree" "$ref" >/dev/null
trap 'rm -f "$new_out" "$old_out"; git worktree remove --force "$worktree" >/dev/null 2>&1 || true' EXIT

echo "== bench: $ref =="
(cd "$worktree" && bench) | tee "$old_out"

if command -v benchstat >/dev/null 2>&1; then
    echo "== benchstat ($ref vs working tree) =="
    benchstat "$old_out" "$new_out"
else
    echo "benchstat not installed; raw outputs above (old: $ref, new: working tree)"
fi
