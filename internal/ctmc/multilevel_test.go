// Multilevel (IAD) solver tests: the near-completely-decomposable
// two-cluster chain with tunable coupling ε that the scheme exists for,
// convergence where the point sweeps stall, bit-identity across worker
// counts and lane widths, auto-selection, and the fault-tolerance
// surface of the coarse-solve step.
package ctmc_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/lts"
	"repro/internal/rates"
)

// epsClusterLen is the length of each birth-death cluster of the ε chain;
// two clusters make the component large enough for the auto rule's stall
// probe (≥ 64 states).
const epsClusterLen = 40

// epsChain builds the canonical near-completely-decomposable test chain:
// two birth-death clusters with distinct internal rates (so no two states
// are lumpable across clusters), bridged by a single bidirectional edge
// pair whose rate is rate slot 1 — the coupling ε, rebindable per solve
// and per batch lane. With both bridge rates equal the chain is one
// reversible birth-death chain, so its stationary distribution follows
// from detailed balance — independent of ε — while the mass transport
// between the clusters, and with it the sweeps' convergence, slows down
// without bound as ε shrinks.
func epsChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	n := 2 * epsClusterLen
	l := lts.New(n)
	l.Initial = 0
	fwd := l.LabelIndex("fwd")
	back := l.LabelIndex("back")
	rate := func(j int) (f, b float64) {
		if j < epsClusterLen {
			return 3.0, 2.0
		}
		return 2.6, 1.7
	}
	for j := 0; j+1 < n; j++ {
		if j+1 == epsClusterLen {
			l.AddTransition(j, j+1, fwd, rates.ExpSlot(1, 1e-3))
			l.AddTransition(j+1, j, back, rates.ExpSlot(1, 1e-3))
			continue
		}
		f, _ := rate(j)
		_, b := rate(j + 1)
		l.AddTransition(j, j+1, fwd, rates.ExpRate(f))
		l.AddTransition(j+1, j, back, rates.ExpRate(b))
	}
	c, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// epsAnalytic returns the detailed-balance solution of the ε chain in
// CTMC state order (the chain has no vanishing states, so LTS and CTMC
// indices coincide).
func epsAnalytic() []float64 {
	n := 2 * epsClusterLen
	pi := make([]float64, n)
	pi[0] = 1
	sum := 1.0
	for j := 0; j+1 < n; j++ {
		var ratio float64
		switch {
		case j+1 == epsClusterLen:
			ratio = 1 // bridge: equal rates both ways
		case j+1 < epsClusterLen:
			ratio = 3.0 / 2.0
		default:
			ratio = 2.6 / 1.7
		}
		pi[j+1] = pi[j] * ratio
		sum += pi[j+1]
	}
	for j := range pi {
		pi[j] /= sum
	}
	return pi
}

// TestMultilevelSolvesEpsChain checks the multilevel result against the
// detailed-balance solution at a moderate coupling, and against the
// converged Gauss-Seidel solution, both well inside the golden tolerance.
func TestMultilevelSolvesEpsChain(t *testing.T) {
	c := epsChain(t)
	if err := c.Rebind([]float64{1e-3}); err != nil {
		t.Fatal(err)
	}
	ml, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel})
	if err != nil {
		t.Fatalf("multilevel: %v", err)
	}
	// The point sweep needs a looser tolerance: on the stiff geometric
	// profile its relative residual grinds just above 1e-12.
	gs, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepGaussSeidel, Tolerance: 1e-10})
	if err != nil {
		t.Fatalf("gauss-seidel: %v", err)
	}
	want := epsAnalytic()
	for j := range ml {
		if math.Abs(ml[j]-want[j]) > 1e-9*math.Max(want[j], 1e-12) {
			t.Fatalf("state %d: multilevel %v, analytic %v", j, ml[j], want[j])
		}
		if math.Abs(ml[j]-gs[j]) > 1e-5*math.Max(gs[j], 1e-12) {
			t.Fatalf("state %d: multilevel %v, gauss-seidel %v", j, ml[j], gs[j])
		}
	}
}

// TestMultilevelConvergesWhereSweepsStall is the tentpole property: at
// ε = 1e-7 the point sweeps need ~1/ε iterations to move mass between
// the clusters and exhaust a 4000-iteration budget, while the IAD cycle
// solves the inter-cluster mode exactly and converges in a bounded
// handful of cycles.
func TestMultilevelConvergesWhereSweepsStall(t *testing.T) {
	c := epsChain(t)
	if err := c.Rebind([]float64{1e-7}); err != nil {
		t.Fatal(err)
	}
	budget := 4000
	// Plain Gauss-Seidel crawls.
	_, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepGaussSeidel, MaxIterations: budget})
	if !errors.Is(err, ctmc.ErrNoConvergence) {
		t.Fatalf("gauss-seidel on the ε chain: want non-convergence within %d iterations, got %v", budget, err)
	}
	pi, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel, MaxIterations: budget})
	if err != nil {
		t.Fatalf("multilevel: %v", err)
	}
	base := trace.Attempts[0]
	if base.Sweep != ctmc.SweepMultilevel || base.Cycles < 1 || base.Cycles > 50 {
		t.Fatalf("multilevel attempt = %+v, want bounded cycles", base)
	}
	want := epsAnalytic()
	for j := range pi {
		if math.Abs(pi[j]-want[j]) > 1e-9*math.Max(want[j], 1e-12) {
			t.Fatalf("state %d: multilevel %v, analytic %v", j, pi[j], want[j])
		}
	}
}

// epsPoints is an 8-point coupling grid spanning four decades; every
// point keeps the same detailed-balance solution (the bridge rates stay
// equal) but a different convergence difficulty per lane.
func epsPoints() [][]float64 {
	out := make([][]float64, 0, 8)
	for _, eps := range []float64{1e-3, 5e-4, 1e-4, 5e-5, 1e-5, 5e-6, 1e-6, 1e-7} {
		out = append(out, []float64{eps})
	}
	return out
}

// TestMultilevelBitIdentity pins the determinism contract: the multilevel
// result is bit-identical run to run (the second run reuses the coarse
// operator the first one cached) and across lane widths {1, 8} — every
// batched lane reproduces the solo solve at that lane's coupling exactly.
func TestMultilevelBitIdentity(t *testing.T) {
	c := epsChain(t)
	points := epsPoints()
	opts := ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel}

	ref := solveSequential(t, c, points, opts)
	again := solveSequential(t, c, points, opts)
	for i := range points {
		for j := range ref[i] {
			if ref[i][j] != again[i][j] {
				t.Fatalf("point %d state %d: run 1 %v != run 2 %v", i, j, ref[i][j], again[i][j])
			}
		}
	}

	for _, lanes := range []int{1, 8} {
		for lo := 0; lo < len(points); lo += lanes {
			hi := lo + lanes
			if hi > len(points) {
				hi = len(points)
			}
			batch, laneErrs, err := c.Clone().SolveBatchLanes(points[lo:hi], ctmc.BatchOptions{Solve: opts})
			if err != nil {
				t.Fatalf("lanes=%d batch [%d:%d): %v", lanes, lo, hi, err)
			}
			for k, le := range laneErrs {
				if le != nil {
					t.Fatalf("lanes=%d lane %d: %v", lanes, lo+k, le)
				}
				for j := range batch[k] {
					if batch[k][j] != ref[lo+k][j] {
						t.Fatalf("lanes=%d point %d state %d: batch %v != solo %v",
							lanes, lo+k, j, batch[k][j], ref[lo+k][j])
					}
				}
			}
		}
	}
}

// TestMultilevelAutoSelection checks the stall probe end to end: an auto
// solve on the tightly coupled ε chain upgrades to multilevel (recorded
// in the trace), produces exactly the explicit multilevel result, and the
// batched auto path routes each lane identically to its solo verdict.
func TestMultilevelAutoSelection(t *testing.T) {
	c := epsChain(t)
	if err := c.Rebind([]float64{1e-7}); err != nil {
		t.Fatal(err)
	}
	pi, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{Sweep: ctmc.SweepAuto})
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if got := trace.Attempts[0].Sweep; got != ctmc.SweepMultilevel {
		t.Fatalf("auto on the stalled ε chain picked %v, want multilevel", got)
	}
	forced, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel})
	if err != nil {
		t.Fatal(err)
	}
	for j := range pi {
		if pi[j] != forced[j] {
			t.Fatalf("state %d: auto %v != forced multilevel %v", j, pi[j], forced[j])
		}
	}

	points := epsPoints()
	auto := ctmc.SolveOptions{Sweep: ctmc.SweepAuto}
	solo := solveSequential(t, c, points, auto)
	batch, laneErrs, err := c.Clone().SolveBatchLanes(points, ctmc.BatchOptions{Solve: auto})
	if err != nil {
		t.Fatal(err)
	}
	for k := range points {
		if laneErrs[k] != nil {
			t.Fatalf("auto lane %d: %v", k, laneErrs[k])
		}
		for j := range batch[k] {
			if batch[k][j] != solo[k][j] {
				t.Fatalf("auto point %d state %d: batch %v != solo %v", k, j, batch[k][j], solo[k][j])
			}
		}
	}
}

// TestMultilevelConvergenceError pins the failure report: a hopeless
// budget surfaces a ConvergenceError carrying the multilevel scheme, the
// outer cycle count, and a message that mentions both.
func TestMultilevelConvergenceError(t *testing.T) {
	c := epsChain(t)
	if err := c.Rebind([]float64{1e-7}); err != nil {
		t.Fatal(err)
	}
	_, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel, MaxIterations: 9})
	var ce *ctmc.ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConvergenceError, got %T: %v", err, err)
	}
	// 9 iterations = one full cycle (4 pre + 4 post) plus one orphan sweep.
	if ce.Sweep != ctmc.SweepMultilevel || ce.Iterations != 9 || ce.Cycles != 1 {
		t.Fatalf("ConvergenceError = %+v, want multilevel, 9 iterations, 1 cycle", ce)
	}
	if msg := ce.Error(); !strings.Contains(msg, "multilevel") || !strings.Contains(msg, "cycles") {
		t.Fatalf("message %q should name the scheme and the cycle count", msg)
	}
}

// TestMultilevelCoarsePanicIsolated injects a panic into the coarse-solve
// step and checks it surfaces as a typed worker-panic error naming the
// multilevel pool with the injected fault intact — on the solo path and
// on a batched lane.
func TestMultilevelCoarsePanicIsolated(t *testing.T) {
	c := epsChain(t)
	if err := c.Rebind([]float64{1e-3}); err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan().Arm(faultinject.SiteCoarseSolve, 1)
	faultinject.Activate(plan)
	_, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel})
	faultinject.Deactivate()
	requireWorkerPanic(t, err, "ctmc.multilevel", faultinject.SiteCoarseSolve, 1)

	faultinject.Activate(faultinject.NewPlan().Arm(faultinject.SiteCoarseSolve, 0))
	_, _, err = c.SolveBatchLanes(epsPoints()[:4], ctmc.BatchOptions{
		Solve: ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel},
	})
	faultinject.Deactivate()
	requireWorkerPanic(t, err, "ctmc.multilevel", faultinject.SiteCoarseSolve, 0)
}

// TestMultilevelCancelAtIteration cancels a multilevel solve at an exact
// smoothing iteration and checks the typed error, like the point-sweep
// cancellation test.
func TestMultilevelCancelAtIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := faultinject.NewPlan().Arm(faultinject.SiteSolveIteration, 5).
		OnFire(faultinject.SiteSolveIteration, func(int) { cancel() })
	faultinject.Activate(plan)

	c := epsChain(t)
	_, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel, Ctx: ctx})
	faultinject.Deactivate()
	cancel()
	var ce *fault.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *fault.CanceledError, got %T: %v", err, err)
	}
	if ce.Phase != "ctmc.steady-state" || ce.Iteration != 5 {
		t.Errorf("canceled at %q iteration %d, want ctmc.steady-state iteration 5", ce.Phase, ce.Iteration)
	}
}

// TestAutoResolvesGaussSeidelOnHugeComponent pins the single-worker side
// of the static SweepAuto rule on a component past the stall-probe size:
// at every coupling of the 80-state ε chain, ResolveSolve (the rule solo
// and batch share) reports Gauss-Seidel. Whether the probe then
// upgrades the solve to multilevel is a runtime verdict, covered by
// TestMultilevelAutoSelection.
func TestAutoResolvesGaussSeidelOnHugeComponent(t *testing.T) {
	c := epsChain(t)
	for _, p := range epsPoints() {
		if err := c.Rebind(p); err != nil {
			t.Fatal(err)
		}
		r, err := c.ResolveSolve(ctmc.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Sweep != ctmc.SweepGaussSeidel {
			t.Errorf("ε=%g: resolved %v, want gauss-seidel", p[0], r.Sweep)
		}
	}
}
