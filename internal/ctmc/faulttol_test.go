// Fault-tolerance properties of the solver layer: cancellation at exact
// iterations and the one-attempt failure shape of a traced solve.
package ctmc_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/faultinject"
)

// TestSteadyStateTracedFailsInOneAttempt pins the shape of a traced
// solve: a hopeless budget fails in one attempt with a bare
// *ConvergenceError and no trace, and a converged solve records exactly
// one Gauss-Seidel attempt at its resolved budget, never escalated.
func TestSteadyStateTracedFailsInOneAttempt(t *testing.T) {
	c := rpcParamChain(t)
	pi, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{MaxIterations: 1})
	var ce *ctmc.ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("want a *ConvergenceError, got %v", err)
	}
	if pi != nil || trace != nil {
		t.Errorf("failed solve returned a solution or a trace: %v, %+v", pi, trace)
	}
	if ce.Iterations != 1 || ce.Tolerance != ctmc.DefaultTolerance || ce.Point != -1 {
		t.Errorf("convergence error %+v, want 1 iteration at the default tolerance outside a sweep", ce)
	}

	_, trace, err = c.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Attempts) != 1 || trace.Escalated() {
		t.Fatalf("trace %+v, want one unescalated attempt", trace)
	}
	a := trace.Attempts[0]
	if a.Sweep != ctmc.SweepGaussSeidel || a.Cycles != 0 || a.MaxIterations != 200000 ||
		a.Iterations < 1 || !(a.Residual < ctmc.DefaultTolerance) {
		t.Errorf("attempt %+v, want a converged gauss-seidel solve at the default budget", a)
	}
}

// TestSolveCancelAtIteration cancels a solve at an exact iteration via an
// injected trigger and checks the typed error: phase, iteration, and the
// context cause are all reported.
func TestSolveCancelAtIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := faultinject.NewPlan().Arm(faultinject.SiteSolveIteration, 3).
		OnFire(faultinject.SiteSolveIteration, func(int) { cancel() })
	faultinject.Activate(plan)

	c := rpcParamChain(t)
	_, _, err := c.SteadyStateTraced(ctmc.SolveOptions{Ctx: ctx})
	faultinject.Deactivate()
	cancel()
	if err == nil {
		t.Fatal("cancellation ignored")
	}
	var ce *fault.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *fault.CanceledError, got %T: %v", err, err)
	}
	if ce.Phase != "ctmc.steady-state" || ce.Iteration != 3 {
		t.Errorf("canceled at %q iteration %d, want ctmc.steady-state iteration 3", ce.Phase, ce.Iteration)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause chain lost context.Canceled: %v", err)
	}
}
