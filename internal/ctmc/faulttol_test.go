// Fault-tolerance properties of the solver layer: cancellation at exact
// iterations and the deterministic convergence-escalation ladder.
package ctmc_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/faultinject"
)

// findIterationBudget returns (insufficient, sufficient) Gauss-Seidel
// iteration budgets for the chain: the solve fails at `insufficient` and
// converges when the budget is multiplied by the ladder's factor (4), so
// the ladder's first rung is guaranteed to recover it.
func findIterationBudget(t *testing.T, c *ctmc.CTMC) (int, int) {
	t.Helper()
	for m := 8; m <= 1<<20; m *= 2 {
		_, err := c.SteadyState(ctmc.SolveOptions{MaxIterations: m})
		if err == nil {
			// Convergence needs k iterations with m/2 < k <= m, so m/4
			// fails and 4*(m/4) = m suffices.
			if m < 8 {
				t.Fatalf("chain converges within %d iterations; too easy to force failure", m)
			}
			return m / 4, m
		}
		if !errors.Is(err, ctmc.ErrNoConvergence) {
			t.Fatal(err)
		}
	}
	t.Fatal("no iteration budget up to 2^20 converges")
	return 0, 0
}

// TestEscalationLadderRecovers forces a real convergence failure (an
// insufficient iteration budget) and checks that the ladder's first rung
// recovers it with a full trace that repeats run to run and a solution
// bit-identical to an unconstrained solve.
func TestEscalationLadderRecovers(t *testing.T) {
	c := rpcParamChain(t)
	insufficient, sufficient := findIterationBudget(t, c)

	ref, err := c.SteadyState(ctmc.SolveOptions{MaxIterations: sufficient})
	if err != nil {
		t.Fatal(err)
	}

	var traces []*ctmc.SolveTrace
	for run := 1; run <= 2; run++ {
		pi, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{
			MaxIterations: insufficient,
			Escalation:    ctmc.EscalateLadder,
		})
		if err != nil {
			t.Fatalf("run %d: ladder did not recover: %v", run, err)
		}
		if !trace.Escalated() {
			t.Fatalf("run %d: expected an escalated trace, got %+v", run, trace)
		}
		base := trace.Attempts[0]
		if base.Rung != 0 || base.Action != "base" || base.Converged || base.Iterations != insufficient {
			t.Errorf("run %d: base attempt wrong: %+v", run, base)
		}
		last := trace.Attempts[len(trace.Attempts)-1]
		if last.Rung != 1 || last.Action != "raise-max-iterations" || !last.Converged {
			t.Errorf("run %d: recovery attempt wrong: %+v", run, last)
		}
		if last.MaxIterations != 4*insufficient {
			t.Errorf("run %d: rung 1 budget = %d, want %d", run, last.MaxIterations, 4*insufficient)
		}
		for i := range pi {
			if pi[i] != ref[i] {
				t.Fatalf("run %d: escalated solution differs from reference at state %d: %v != %v",
					run, i, pi[i], ref[i])
			}
		}
		traces = append(traces, trace)
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Errorf("trace differs run to run:\n run 1: %+v\n run 2: %+v", traces[0], traces[1])
	}
}

// TestEscalationLadderExhausts pins the ladder's failure shape: with a
// hopeless budget the base attempt and the one retry are both recorded,
// both as Gauss-Seidel solves without cycles, and the final error is
// still a ConvergenceError.
func TestEscalationLadderExhausts(t *testing.T) {
	c := rpcParamChain(t)
	_, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{
		MaxIterations: 1,
		Escalation:    ctmc.EscalateLadder,
	})
	if err == nil {
		t.Fatal("expected the ladder to exhaust")
	}
	if !errors.Is(err, ctmc.ErrNoConvergence) {
		t.Fatalf("exhausted ladder should report non-convergence, got %v", err)
	}
	wantActions := []string{"base", "raise-max-iterations"}
	wantRungs := []int{0, 1}
	wantBudgets := []int{1, 4}
	if len(trace.Attempts) != len(wantActions) {
		t.Fatalf("attempts = %d, want %d: %+v", len(trace.Attempts), len(wantActions), trace.Attempts)
	}
	for i, a := range trace.Attempts {
		if a.Action != wantActions[i] || a.Rung != wantRungs[i] || a.Converged {
			t.Errorf("attempt %d: got %+v, want rung %d action %q, not converged", i, a, wantRungs[i], wantActions[i])
		}
		if a.MaxIterations != wantBudgets[i] || a.Iterations != wantBudgets[i] {
			t.Errorf("attempt %d: budget %d, iterations %d, want both %d", i, a.MaxIterations, a.Iterations, wantBudgets[i])
		}
		if a.Sweep != ctmc.SweepGaussSeidel || a.Cycles != 0 {
			t.Errorf("attempt %d: sweep %v, %d cycles, want gauss-seidel and 0", i, a.Sweep, a.Cycles)
		}
	}
}

// TestEscalationRejectsInBatch pins the option split: Escalation is not a
// batch option, and SolveBatch rejects it loudly instead of silently
// ignoring it.
func TestEscalationRejectsInBatch(t *testing.T) {
	c := rpcParamChain(t)
	if _, err := c.SolveBatch(rpcPoints()[:2], ctmc.BatchOptions{
		Solve: ctmc.SolveOptions{Escalation: ctmc.EscalateLadder},
	}); err == nil {
		t.Error("SolveBatch accepted Escalation")
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
	_, err := c.SteadyState(ctmc.SolveOptions{Ctx: ctx})
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
