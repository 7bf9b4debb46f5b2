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

# The simulator's per-event cost rests on the compiler inlining four
# functions: rng's Uint64 with Float64 around it (into every uniform,
# normal and exponential draw), the accrue and countFiring closures of
# sim's event loop, and the stateRec.pickImmediate method that picks the
# transition of every zero-time step the link walk cannot take. An edit
# that pushes one over the inlining budget still builds and passes every
# test, only slower, so this step reads the compiler's own report. A
# closure can be reported inlinable and still not be inlined where it is
# called, so for the closures — found by their line in sim.go — every
# call site must be reported inlined, matched by file:line:col of its
# opening parenthesis (the position the compiler reports). Matching
# sites rather than counting report lines matters: a call inside a
# closure that is itself inlined at two sites is reported twice, and a
# count would take that for an extra call. The method is checked the
# same way at each of its ".pickImmediate(" calls. The .aem lexer's
# per-byte helpers get the same check as rng: each description the front
# end builds runs them once per source byte. So does lts's Row, read once
# per visited state by the branching-bisimulation passes of every Sect. 3
# check.
echo "== hot-path inlining (internal/rng, internal/sim, internal/aemilia/parser, internal/lts) =="
inl=$(go build -gcflags=-m ./internal/rng 2>&1)
for fn in Uint64 Float64; do
    if ! echo "$inl" | grep -q "can inline (\*Rand)\.$fn\$"; then
        echo "internal/rng: (*Rand).$fn is no longer inlinable" >&2
        exit 1
    fi
done
inl=$(go build -gcflags=-m ./internal/sim 2>&1)
# "fn line:col" for each position at which the compiler must report a
# call of fn inlined: the "(" of every call, comments stripped. A call in
# the body of a closure (any "\tname := func" of sim.go) is reported at
# the call sites of that closure, where its body is inlined, so it stands
# for those.
sites=$(awk -v fns='accrue countFiring' '
    function emit(fn, f,    l, line, off, i, g, in_g) {
        for (l = 1; l <= NR; l++) {
            line = src[l]; sub(/\/\/.*/, "", line); off = 0
            while ((i = index(line, f "(")) > 0) {
                if (i == 1 || substr(line, i - 1, 1) !~ /[A-Za-z0-9_.]/) {
                    in_g = ""
                    for (g in beg) if (beg[g] < l && l <= end[g]) in_g = g
                    if (in_g == "") print fn, l ":" off + i + length(f)
                    else emit(fn, in_g)
                }
                off += i + length(f); line = substr(line, i + length(f) + 1)
            }
        }
    }
    { src[NR] = $0 }
    END {
        for (l = 1; l <= NR; l++) if (match(src[l], /^\t[A-Za-z_][A-Za-z0-9_]* := func/)) {
            g = substr(src[l], 2, index(src[l], " ") - 2)
            for (e = l; e < NR && src[e] != "\t}"; e++) {}
            beg[g] = l; end[g] = e
        }
        n = split(fns, fn, " ")
        for (k = 1; k <= n; k++) emit(fn[k], fn[k])
    }' internal/sim/sim.go)
for fn in accrue countFiring; do
    line=$(grep -n "^	$fn := func" internal/sim/sim.go | cut -d: -f1)
    name=$(echo "$inl" | sed -n "s/^.*sim\.go:$line:[0-9]*: can inline \(.*\)\$/\1/p")
    fnsites=$(echo "$sites" | sed -n "s/^$fn //p")
    if [ -z "$line" ] || [ -z "$name" ] || [ -z "$fnsites" ]; then
        echo "internal/sim: the $fn closure of replicate is not reported inlinable, or has no call site" >&2
        exit 1
    fi
    for site in $fnsites; do
        if ! echo "$inl" | grep -qF "sim.go:$site: inlining call to $name"; then
            echo "internal/sim: the $fn closure of replicate is not inlined at sim.go:$site" >&2
            exit 1
        fi
    done
done
picks=$(awk '{
    line = $0; sub(/\/\/.*/, "", line); off = 0
    while ((i = index(line, ".pickImmediate(")) > 0) {
        off += i + length(".pickImmediate"); print NR ":" off
        line = substr(line, i + length(".pickImmediate") + 1)
    }
}' internal/sim/sim.go)
if ! echo "$inl" | grep -q 'can inline (\*stateRec)\.pickImmediate$' || [ -z "$picks" ]; then
    echo "internal/sim: (*stateRec).pickImmediate is not reported inlinable, or has no call site" >&2
    exit 1
fi
for site in $picks; do
    if ! echo "$inl" | grep -qF "sim.go:$site: inlining call to (*stateRec).pickImmediate"; then
        echo "internal/sim: (*stateRec).pickImmediate is not inlined at sim.go:$site" >&2
        exit 1
    fi
done
inl=$(go build -gcflags=-m ./internal/aemilia/parser 2>&1)
for fn in '(\*lexer)\.peekByte' '(\*lexer)\.advance' isSpace isIdentStart isIdentPart; do
    if ! echo "$inl" | grep -q "can inline $fn\$"; then
        echo "internal/aemilia/parser: $fn is no longer inlinable" >&2
        exit 1
    fi
done
inl=$(go build -gcflags=-m ./internal/lts 2>&1)
if ! echo "$inl" | grep -q "can inline (\*LTS)\.Row\$"; then
    echo "internal/lts: (*LTS).Row is no longer inlinable" >&2
    exit 1
fi

# Every test invocation carries an explicit -timeout: a deadlocked worker
# pool (the exact failure class the fault-tolerance layer guards against)
# must fail CI within the bound instead of hanging the job.
echo "== go test =="
go test -timeout 10m ./...

echo "== go test -race =="
go test -timeout 10m -race ./...

# Fault-injection smoke under the race detector at -cpu 1,2: injected
# worker panics, cancellation at an exact iteration, a sweep canceled
# and a sweep that fails to converge, each resumed from the result store
# file (pipeline.FileStore) it was appending to, and a store whose Put
# fails (TestSolveCancelAtIteration in internal/ctmc and the session
# sweep's TestPhase2Sweep*Panic*/Cancel*/Checkpoint* and
# TestCheckpointResumeRejects properties in internal/pipeline — the
# store tests keep the Checkpoint names of the sweep checkpoint they
# replaced), plus the shared worker pool's own panic test
# (TestPoolRecoversPanic in internal/fault), on both the degenerate and
# a two-core schedule. The recovery paths — panic capture, lowest-index
# attribution, concurrent appends and resume from the store — are
# themselves concurrent code and get their race coverage here. The
# pool's third caller, experiments.RunPoints, gets the same two
# schedules through its panic and worker-determinism tests. The two study
# CLIs get them through their byte-pin and checkpoint-resume tests
# (TestQuickOutputBytes, TestCheckpointResume in cmd/rpcstudy and
# cmd/streamingstudy): a -quick run of every catalog entry at -workers 1
# and 8, and a run on a result store resumed from it, each printing the
# pinned bytes. They are the only tests that drive a whole study through
# experiments.RunStudy's one loop, its reuse of finished results and the
# worker pool.
echo "== fault-injection smoke (-race -cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'FaultInject|Panic|Cancel|Checkpoint' \
    ./internal/pipeline/ ./internal/ctmc/ ./internal/lts/ ./internal/sim/ ./internal/faultinject/ ./internal/fault/
go test -timeout 10m -race -cpu 1,2 \
    -run 'RunPoints|WorkerDeterminism|Panic' ./internal/experiments/
go test -timeout 10m -race -cpu 1,2 -run 'QuickOutputBytes|CheckpointResume' ./cmd/rpcstudy/ ./cmd/streamingstudy/

# Session-sharing smoke under the race detector at -cpu 1,2: concurrent
# goroutines solve on one session through its single-flight stages
# (TestSessionSingleFlight), sweep workers at 1, 2 and 8 clone one
# session's chain and evaluate its one compiled measure set concurrently
# (TestSweepMatchesColdSolve), concurrent store reads hand out private
# clones (TestStoreHitMatchesFreshSolve), and the compiled measures on
# rebound clones are bit-identical to the per-call oracle walk
# (TestCompiledMeasuresMatchOracle in internal/ctmc). The session layer is
# the one place every driver's goroutines meet, so its race coverage is
# load-bearing.
echo "== session race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'SessionSingleFlight|SweepMatchesColdSolve|StoreHit|CompiledMeasures' ./internal/pipeline/ ./internal/ctmc/

# Folding smoke under the race detector at -cpu 1,2 (-compose minimize
# folds vanishing states during generation): folding preserves
# throughputs, attributions, and parametric slots, is bit-identical when
# generations from one shared model run concurrently, keeps the
# MaxStates bound exact, is unchanged by fold-memo resets and allocates
# independently of the state count (TestFold* in internal/lts), and the
# folded experiment suite agrees with the full path within 1e-6 and is
# bit-identical across worker counts (TestGoldenMinimizeAgreement in
# internal/experiments). Generation itself is sequential; what races here
# is concurrent sessions and sweep points sharing one immutable model.
echo "== folding race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 -run 'Minimize|Fold' \
    ./internal/lts/ ./internal/experiments/

# Simulator race smoke at -cpu 1,2: the worker-count bit-identity and
# reproducibility properties, the measurement window, the exact-tie
# tie-break, the paper-model fingerprints at one and two workers and the
# override resolution (TestParallelReplicationsBitIdentical,
# TestReproducible*, TestWindowAccruesFully, TestExactTieBreaksByName,
# TestSimFingerprints, TestUnknownOverrideRejected,
# TestModelOverridesResolve in internal/sim). Each replication worker owns a runner whose
# elab.Compiled, state and transition records and clocks are all
# mutable, so a fork that shared any of them would race here.
echo "== simulator race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 \
    -run 'ParallelReplicationsBitIdentical|Reproducible|WindowAccrues|Tie|SimFingerprints|Override' ./internal/sim/

# Sect. 3 check race smoke at -cpu 1,2: noninterference.Check builds the
# restricted variant on a second goroutine while the hidden one is built,
# and bisim.Equivalent reduces its two inputs to branching quotients
# concurrently (both through fault.Both, over sealed inputs that may be
# one system). Every test of both packages runs, on the degenerate and a
# two-core schedule.
echo "== noninterference race smoke (-cpu 1,2) =="
go test -timeout 10m -race -cpu 1,2 ./internal/noninterference/ ./internal/bisim/

# Fuzz smoke: ten seconds of coverage-guided fuzzing per target on top of
# the seed corpora that plain `go test` replays — the Æmilia parser and
# lexer (the byte-parsing input surface), the rate erasure that derives
# each functional model from its Markovian one (FuzzUntimed, seeded with
# every shipped spec), the weak-bisimulation check
# against its unreduced saturation oracle, the branching refinement and
# quotient against the full-round reference refinement, round by round
# (FuzzBranchingQuotient), the compiled successor
# enumeration — the one successor function of both state-space
# generation and simulation — against the term-interpreting
# Model.Successors, a test-only oracle, the result store's record decoder
# (FuzzDecodeCheckpoint: the file a resumed run trusts), the
# measure-file parser (the other text input a user hands the CLIs), the
# Aldebaran .aut reader with its WriteAUT round trip, restriction and
# hiding of rated systems with Aux handles against the Build-based
# reference restriction and the parent's rates edge by edge
# (FuzzRestrictHide), the tuple table behind every state table and
# memo against a map reference, and the vectorized Gauss-Seidel kernel
# against the scalar one, bit for bit, on small chains with rate slots
# at up to eight points (FuzzSweepKernel, amd64 only). A
# crasher lands under the package's testdata/fuzz and then replays in
# every later `go test`. Every target caps input minimization at 200
# runs: under Go's default 60 s limit, minimizing one new input can take
# the whole ten seconds (FuzzCompiledSuccessors, seeded with every spec,
# ran 8 executions in ten seconds without the cap and about 127,000 with
# it).
echo "== fuzz smoke =="
go test -timeout 5m -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 200x ./internal/aemilia/parser/
go test -timeout 5m -run '^$' -fuzz '^FuzzLexer$' -fuzztime 10s -fuzzminimizetime 200x ./internal/aemilia/parser/
go test -timeout 5m -run '^$' -fuzz '^FuzzUntimed$' -fuzztime 10s -fuzzminimizetime 200x ./internal/aemilia/parser/
go test -timeout 5m -run '^$' -fuzz '^FuzzWeakEquivalent$' -fuzztime 10s -fuzzminimizetime 200x ./internal/bisim/
go test -timeout 5m -run '^$' -fuzz '^FuzzBranchingQuotient$' -fuzztime 10s -fuzzminimizetime 200x ./internal/bisim/
go test -timeout 5m -run '^$' -fuzz '^FuzzCompiledSuccessors$' -fuzztime 10s -fuzzminimizetime 200x ./internal/elab/
go test -timeout 5m -run '^$' -fuzz '^FuzzDecodeCheckpoint$' -fuzztime 10s -fuzzminimizetime 200x ./internal/pipeline/
go test -timeout 5m -run '^$' -fuzz '^FuzzParseMeasures$' -fuzztime 10s -fuzzminimizetime 200x ./internal/measure/
go test -timeout 5m -run '^$' -fuzz '^FuzzReadAUT$' -fuzztime 10s -fuzzminimizetime 200x ./internal/lts/
go test -timeout 5m -run '^$' -fuzz '^FuzzRestrictHide$' -fuzztime 10s -fuzzminimizetime 200x ./internal/lts/
go test -timeout 5m -run '^$' -fuzz '^FuzzTupleTable$' -fuzztime 10s -fuzzminimizetime 200x ./internal/statespace/
go test -timeout 5m -run '^$' -fuzz '^FuzzSweepKernel$' -fuzztime 10s -fuzzminimizetime 200x ./internal/ctmc/

echo "CI OK"
