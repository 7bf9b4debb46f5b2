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

# The scalar four-lane kernel (sweepGS4 behind sweep_noasm.go) is the
# only sweep path off amd64; vetting and building for arm64 keeps that
# path and its test shims compiling on a machine that never runs them.
echo "== cross-arch build (arm64) =="
GOARCH=arm64 go vet ./internal/ctmc/ && GOARCH=arm64 go build ./...

# The simulator's per-event cost rests on the compiler inlining three
# functions: rng's Uint64 with Float64 around it (into every uniform,
# normal and exponential draw) and the accrue and countFiring closures of
# sim's event loop. An edit that pushes one over the inlining budget still
# builds and passes every test, only slower, so this step reads the
# compiler's own report. A closure can be reported inlinable and still
# not be inlined where it is called, so for the closures — found by their
# line in sim.go — every call site must be reported inlined.
echo "== hot-path inlining (internal/rng, internal/sim) =="
inl=$(go build -gcflags=-m ./internal/rng 2>&1)
for fn in Uint64 Float64; do
    if ! echo "$inl" | grep -q "can inline (\*Rand)\.$fn\$"; then
        echo "internal/rng: (*Rand).$fn is no longer inlinable" >&2
        exit 1
    fi
done
inl=$(go build -gcflags=-m ./internal/sim 2>&1)
for fn in accrue countFiring; do
    line=$(grep -n "^	$fn := func" internal/sim/sim.go | cut -d: -f1)
    name=$(echo "$inl" | sed -n "s/^.*sim\.go:$line:[0-9]*: can inline \(.*\)\$/\1/p")
    calls=$(grep -c "[^.]\<$fn(" internal/sim/sim.go || true)
    inlined=$(echo "$inl" | grep -cF "inlining call to $name" || true)
    if [ -z "$line" ] || [ -z "$name" ] || [ "$inlined" -ne "$calls" ]; then
        echo "internal/sim: the $fn closure of replicate is inlined at ${inlined:-0} of its ${calls:-0} call sites" >&2
        exit 1
    fi
done

# Every test invocation carries an explicit -timeout: a deadlocked worker
# pool (the exact failure class the fault-tolerance layer guards against)
# must fail CI within the bound instead of hanging the job.
echo "== go test =="
go test -timeout 10m ./...

echo "== go test -race =="
go test -timeout 10m -race ./...

# Fault-injection smoke under the race detector at -cpu 1,2: injected
# worker panics, cancellation at an exact iteration, and a sweep that
# fails to converge and is resumed from its checkpoint with a larger
# budget (TestSolveCancelAtIteration in internal/ctmc and the session
# sweep's TestPhase2Sweep*Panic*/Cancel*/Checkpoint* and
# TestCheckpointResumeRejects properties in internal/pipeline), on both
# the degenerate and a two-core schedule. The recovery paths — panic
# capture, lowest-index attribution, checkpoint replay — are themselves
# concurrent code and get their race coverage here.
echo "== fault-injection smoke (-race -cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'FaultInject|Panic|Cancel|Checkpoint' \
    ./internal/pipeline/ ./internal/ctmc/ ./internal/lts/ ./internal/sim/ ./internal/faultinject/ ./internal/fault/

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

# Compositional-minimization smoke under the race detector at -cpu 1,2:
# the quotient-vs-full properties — component lumping is deterministic
# and generation from the quotient is bit-identical across runs
# (TestMinimize* in internal/compose), vanishing-state folding preserves
# throughputs, attributions, and parametric slots, is bit-identical
# when generations from one shared model run concurrently, keeps the
# MaxStates bound exact, is unchanged by fold-memo resets and allocates
# independently of the state count (TestFold* in internal/lts), and the minimized experiment suite agrees with the full
# path within 1e-6 and is bit-identical across worker/lane counts
# (TestGoldenMinimizeAgreement in internal/experiments). Generation
# itself is sequential; what races here is concurrent sessions and sweep
# points sharing one immutable quotient model.
echo "== compositional-minimization race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 -run 'Minimize|Fold' \
    ./internal/compose/ ./internal/lts/ ./internal/experiments/

# Simulator race smoke at -cpu 1,2: the worker-count bit-identity and
# reproducibility properties, batch means, the exact-tie tie-break, the
# paper-model fingerprints at one and two workers and the override
# resolution (TestParallelReplicationsBitIdentical, TestReproducible*,
# TestBatchMeans*, TestExactTieBreaksByName, TestSimFingerprints,
# TestUnknownOverrideRejected, TestModelOverridesResolve in
# internal/sim). Each replication worker owns a runner whose
# elab.Compiled, state records, per-transition arrays and clocks are all
# mutable, so a fork that shared any of them would race here.
echo "== simulator race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'ParallelReplicationsBitIdentical|Reproducible|BatchMeans|Tie|SimFingerprints|Override' ./internal/sim/

# Benchmark smoke run: one iteration of every benchmark, so a benchmark
# that no longer compiles or panics fails CI without costing bench time.
# -short skips only the 10×-buffer composition pair, whose full product
# is minutes of generation per iteration (run it without -short, e.g.
# scripts/bench_compare.sh -c 1 -p 'Compose', to time it).
echo "== bench smoke =="
go test -timeout 10m -short -run '^$' -bench . -benchtime 1x ./...

# Race smoke of the hot paths at -cpu 1,2: the solo steady-state solve,
# the batched multi-lane kernel, and the sweep/simulation pools each run
# one iteration under the race detector on both the degenerate and a
# two-core schedule (plain -race tests cover GOMAXPROCS as-is only).
# State-space generation is sequential and has no pool to race-test here.
# Only the Batched variants of the BatchSolve benches run here: the
# per-point variants exercise the solo solver, which the SteadyState
# patterns already race-test, so rerunning them would only add race-
# instrumented minutes without new coverage. Of the Compose
# benches, the default-size rpc/streaming pairs run and the 10×-buffer
# pair stays out — race-instrumenting a multi-minute full-product
# generation would dominate the job for a path the default sizes already
# cover.
echo "== bench race smoke (-cpu 1,2) =="
scripts/bench_compare.sh -s -p 'Sequential|Parallel|SteadyStateGaussSeidel|SweepReuse|BatchSolve(RPC|Streaming)Batched|Compose(RPC|Streaming)(Full|Minimized)$'

# Fuzz smoke: ten seconds of coverage-guided fuzzing per target on top of
# the seed corpora that plain `go test` replays — the Æmilia parser and
# lexer (the byte-parsing input surface), the weak-bisimulation check
# against its unreduced saturation oracle, the compiled successor
# enumeration — the one successor function of both state-space
# generation and simulation — against the term-interpreting
# Model.Successors, a test-only oracle, the sweep checkpoint decoder (the file a resumed sweep trusts), the
# measure-file parser (the other text input a user hands the CLIs), the
# Aldebaran .aut reader with its WriteAUT round trip, restriction and
# hiding of rated systems with Aux handles against the Build-based
# reference restriction and the parent's rates edge by edge
# (FuzzRestrictHide), and the tuple table behind every state table and
# memo against a map reference. A
# crasher lands under the package's testdata/fuzz and then replays in
# every later `go test`.
echo "== fuzz smoke =="
go test -timeout 5m -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/aemilia/parser/
go test -timeout 5m -run '^$' -fuzz '^FuzzLexer$' -fuzztime 10s ./internal/aemilia/parser/
go test -timeout 5m -run '^$' -fuzz '^FuzzWeakEquivalent$' -fuzztime 10s ./internal/bisim/
go test -timeout 5m -run '^$' -fuzz '^FuzzCompiledSuccessors$' -fuzztime 10s ./internal/elab/
go test -timeout 5m -run '^$' -fuzz '^FuzzDecodeCheckpoint$' -fuzztime 10s ./internal/pipeline/
go test -timeout 5m -run '^$' -fuzz '^FuzzParseMeasures$' -fuzztime 10s ./internal/measure/
go test -timeout 5m -run '^$' -fuzz '^FuzzReadAUT$' -fuzztime 10s ./internal/lts/
go test -timeout 5m -run '^$' -fuzz '^FuzzRestrictHide$' -fuzztime 10s ./internal/lts/
go test -timeout 5m -run '^$' -fuzz '^FuzzTupleTable$' -fuzztime 10s ./internal/statespace/

echo "CI OK"
