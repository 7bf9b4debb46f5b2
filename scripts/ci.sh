#!/bin/sh
# CI gate: vet, build, and the full test suite under the race detector.
# The parallel experiment engine (worker pools in internal/sim and
# internal/experiments) makes the race run the load-bearing check here —
# plain `go test` would not exercise the cross-goroutine interactions.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
# ./... covers every package; the fault-tolerance layer is named
# explicitly so a future package split cannot silently drop it from vet.
go vet ./...
go vet ./internal/fault/ ./internal/faultinject/

echo "== go build =="
go build ./...

# Every test invocation carries an explicit -timeout: a deadlocked worker
# pool (the exact failure class the fault-tolerance layer guards against)
# must fail CI within the bound instead of hanging the job.
echo "== go test =="
go test -timeout 10m ./...

echo "== go test -race =="
go test -timeout 10m -race ./...

# Fault-injection smoke under the race detector at -cpu 1,2: one injected
# worker panic and one injected non-convergence per sweep mode (the
# TestFaultInjection* and TestSweep*Escalat*/Panic*/Cancel* properties in
# internal/core and internal/ctmc), on both the degenerate and a two-core
# schedule. The recovery paths — panic capture, lowest-index attribution,
# escalation, checkpoint replay — are themselves concurrent code and get
# their race coverage here.
echo "== fault-injection smoke (-race -cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'FaultInject|Panic|Escalat|Cancel|Checkpoint' \
    ./internal/core/ ./internal/ctmc/ ./internal/lts/ ./internal/sim/ ./internal/faultinject/ ./internal/fault/

# Session-sharing smoke under the race detector at -cpu 1,2: concurrent
# goroutines open handles on one shared spec key and solve through the
# single-flight stages (TestSessionSingleFlight), two handles with
# different scheduling configs share one set of staged artifacts
# (TestManagerReusesStagedArtifacts), and concurrent store reads hand out
# private clones (TestStoreHitMatchesFreshSolve). The session layer is
# the one place every driver's goroutines now meet, so its race coverage
# is load-bearing.
echo "== session race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'SessionSingleFlight|ManagerReuses|StoreHit' ./internal/pipeline/

# Multilevel solver smoke under the race detector at -cpu 1,2: the
# aggregation/disaggregation cycle, its stalled-decay auto-selection, the
# worker/lane bit-identity properties, the coarse-solve fault-injection
# site, and cancellation mid-cycle (the TestMultilevel* properties in
# internal/ctmc), on both the degenerate and a two-core schedule. The
# fault-injection smoke above already hits the Panic/Cancel subset; this
# run adds the convergence and identity properties under -race, where a
# data race between the shared coarse-plan cache (solvePlan.coarseOnce)
# and concurrent lane solves would surface.
echo "== multilevel race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 -run 'Multilevel' ./internal/ctmc/

# Compositional-minimization smoke under the race detector at -cpu 1,2:
# the quotient-vs-full properties — component lumping is deterministic
# and generation from the quotient is bit-identical at any worker count
# (TestMinimize* in internal/compose), vanishing-state folding preserves
# throughputs, attributions, and parametric slots and is bit-identical in
# parallel (TestFold* in internal/lts), and the minimized experiment
# suite agrees with the full path within 1e-6 and is bit-identical across
# worker/lane counts (TestGoldenMinimizeAgreement in
# internal/experiments). The lumping and folded generation run inside the
# generation worker pool, so their race coverage is load-bearing.
echo "== compositional-minimization race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 -run 'Minimize|Fold' \
    ./internal/compose/ ./internal/lts/ ./internal/experiments/

# Simulator race smoke at -cpu 1,2: the worker-count bit-identity and
# reproducibility properties, batch means, and the exact-tie tie-break
# (TestParallelReplicationsBitIdentical, TestReproducible*,
# TestBatchMeans*, TestExactTieBreaksByName in internal/sim). Each
# replication worker owns a runner whose activity table, compiled state
# records, per-transition arrays and clocks are all mutable, so a fork
# that shared any of them would race here.
echo "== simulator race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'ParallelReplicationsBitIdentical|Reproducible|BatchMeans|Tie' ./internal/sim/

# Benchmark smoke run: one iteration of every benchmark, so a benchmark
# that no longer compiles or panics fails CI without costing bench time.
# -short skips only the 10×-buffer composition pair, whose full product
# is minutes of generation per iteration (scripts/bench_compare.sh -C
# times it properly).
echo "== bench smoke =="
go test -timeout 10m -short -run '^$' -bench . -benchtime 1x ./...

# Race smoke of the parallel hot paths at -cpu 1,2: the worker-pooled
# state-space generation, the Jacobi solver pool (solo and batched), the
# batched multi-lane kernel, and the sweep/simulation pools each run one
# iteration under the race detector on both the degenerate and a two-core
# schedule (plain -race tests cover GOMAXPROCS as-is only).
# Only the Batched variants of the BatchSolve benches run here: the
# per-point variants exercise the solo solver, which the SteadyState
# patterns already race-test, so rerunning them would only add race-
# instrumented minutes without new coverage. Of the Multilevel benches,
# only the multilevel-scheme ε pair runs: the Gauss-Seidel/Jacobi
# reference sides grind for hundreds of thousands of race-instrumented
# sweeps to measure work the timing modes already report. Of the Compose
# benches, the default-size rpc/streaming pairs run and the 10×-buffer
# pair stays out — race-instrumenting a multi-minute full-product
# generation would dominate the job for a path the default sizes already
# cover.
echo "== bench race smoke (-cpu 1,2) =="
scripts/bench_compare.sh -s -p 'Sequential|Parallel|SteadyState(GaussSeidel|Jacobi)|SweepReuse|BatchSolve(RPC|Streaming)Batched|MultilevelEps(Multilevel|BatchedMultilevel)|Compose(RPC|Streaming)(Full|Minimized)$'

echo "CI OK"
