package ctmc

import "errors"

// Escalation selects the convergence-failure policy of SteadyStateTraced.
type Escalation int

const (
	// EscalateNever surfaces a ConvergenceError as-is (the default).
	EscalateNever Escalation = iota
	// EscalateLadder retries a failed solve through a fixed, cumulative
	// ladder of configuration changes:
	//
	//	rung 1: raise MaxIterations ×4
	//	rung 2: switch to the multilevel scheme (skipped when the
	//	        failing configuration already was multilevel), the
	//	        structurally different last resort for slow-mixing
	//	        chains Gauss-Seidel cannot crack
	//
	// Every rung keeps the changes of the rungs below it, each attempt is
	// recorded in the SolveTrace, and the ladder position is a pure
	// function of the solve's input — options and chain — never of
	// scheduling, so an escalated result is reproducible at any worker
	// count and flagged by its trace, never silent. Only a
	// ConvergenceError advances the ladder; cancellation, invariant
	// violations, and structural errors abort it immediately.
	EscalateLadder
)

// escalateIterFactor is the MaxIterations multiplier of the ladder's
// first rung.
const escalateIterFactor = 4

// SolveAttempt records one attempt of an escalated solve.
type SolveAttempt struct {
	// Rung is the ladder position: 0 for the base attempt, 1..2 for the
	// escalation rungs.
	Rung int
	// Action names what changed at this rung: "base" (or
	// "forced-nonconvergence" when fault injection failed the base
	// attempt), "raise-max-iterations", "multilevel".
	Action string
	// Sweep and MaxIterations are the attempt's resolved solver
	// configuration (Sweep is never SweepAuto).
	Sweep         Sweep
	MaxIterations int
	// Converged reports whether the attempt succeeded.
	Converged bool
	// Iterations and Residual are the attempt's final iteration count and
	// residual — the failure point of a failed attempt, the convergence
	// point of a successful one.
	Iterations int
	Residual   float64
	// Cycles is the attempt's outer multilevel cycle count (zero for
	// Gauss-Seidel, which has no outer loop).
	Cycles int
}

// SolveTrace is the attempt history of an escalated solve, attached to
// sweep reports so escalated points are flagged and reproducible.
type SolveTrace struct {
	// Attempts lists every attempt in rung order; Attempts[0] is the base
	// attempt.
	Attempts []SolveAttempt
}

// Escalated reports whether the solve needed the ladder (any attempt
// beyond the base one).
func (t *SolveTrace) Escalated() bool { return t != nil && len(t.Attempts) > 1 }

// ResolveSolve reports the configuration a SteadyState call with these
// options starts from: defaults filled and SweepAuto resolved to
// Gauss-Seidel. It fails when the chain has no single reachable recurrent
// component to solve. The escalation ladder starts from this resolved
// configuration. The auto rule's stall probe and multilevel retry are not
// run here — an auto solve that upgrades to multilevel reports the upgrade
// through the trace's attempt record, which always carries the scheme that
// actually ran.
func (c *CTMC) ResolveSolve(opts SolveOptions) (SolveOptions, error) {
	opts = solveDefaults(opts)
	if _, err := c.ensurePlan(); err != nil {
		return opts, err
	}
	if opts.Sweep == SweepAuto {
		opts.Sweep = SweepGaussSeidel
	}
	return opts, nil
}

// attemptRecord summarizes one solve outcome for the trace. On success
// the statistics come from the solver's own report; on failure from the
// convergence error. Either way the recorded scheme is the one that
// actually ran — in auto mode that may be the multilevel upgrade, not the
// statically resolved Gauss-Seidel.
func attemptRecord(rung int, action string, cfg SolveOptions, st solveStats, err error) SolveAttempt {
	a := SolveAttempt{
		Rung:          rung,
		Action:        action,
		Sweep:         cfg.Sweep,
		MaxIterations: cfg.MaxIterations,
		Converged:     err == nil,
	}
	if err == nil {
		a.Sweep = st.Sweep
		a.Iterations = st.Iterations
		a.Residual = st.Residual
		a.Cycles = st.Cycles
		return a
	}
	var ce *ConvergenceError
	if errors.As(err, &ce) {
		a.Sweep = ce.Sweep
		a.Iterations = ce.Iterations
		a.Residual = ce.Residual
		a.Cycles = ce.Cycles
	}
	return a
}

// SteadyStateTraced is SteadyState with an attempt trace and, when
// opts.Escalation is EscalateLadder, the deterministic convergence
// escalation described there. On success the trace's last attempt is the
// converged one; Escalated() reports whether the base configuration
// sufficed. On failure the trace records every exhausted rung and the
// returned error is the last rung's.
func (c *CTMC) SteadyStateTraced(opts SolveOptions) ([]float64, *SolveTrace, error) {
	resolved, err := c.ResolveSolve(opts)
	if err != nil {
		return nil, nil, err
	}
	pi, st, err := c.steadyStateStats(opts)
	if err != nil && opts.Escalation == EscalateLadder && errors.Is(err, ErrNoConvergence) {
		return c.EscalateFrom(opts, "base", err)
	}
	trace := &SolveTrace{Attempts: []SolveAttempt{attemptRecord(0, "base", resolved, st, err)}}
	if err != nil {
		return nil, trace, err
	}
	return pi, trace, nil
}

// EscalateFrom runs the escalation ladder for options whose base attempt
// already failed with baseErr, a ConvergenceError. The returned trace
// records that base attempt as rung 0 under the given action — "base", or
// "forced-nonconvergence" when fault injection failed it — followed by
// every rung tried. It exists separately from SteadyStateTraced so the
// sweep's batched path can escalate exactly the lanes that failed: a
// batched lane's failure is bit-identical to the one-lane base attempt,
// so starting the ladder from rung 1 reproduces SteadyStateTraced without
// re-running the base solve.
func (c *CTMC) EscalateFrom(opts SolveOptions, action string, baseErr error) ([]float64, *SolveTrace, error) {
	cur, err := c.ResolveSolve(opts)
	if err != nil {
		return nil, nil, err
	}
	trace := &SolveTrace{Attempts: []SolveAttempt{attemptRecord(0, action, cur, solveStats{}, baseErr)}}
	rungs := []struct {
		action string
		apply  func(o *SolveOptions) bool
	}{
		{"raise-max-iterations", func(o *SolveOptions) bool {
			o.MaxIterations *= escalateIterFactor
			return true
		}},
		{"multilevel", func(o *SolveOptions) bool {
			if o.Sweep == SweepMultilevel {
				return false // the base scheme already was multilevel
			}
			o.Sweep = SweepMultilevel
			return true
		}},
	}
	lastErr := baseErr
	for r, rung := range rungs {
		if !rung.apply(&cur) {
			continue
		}
		pi, st, err := c.steadyStateStats(cur)
		trace.Attempts = append(trace.Attempts, attemptRecord(r+1, rung.action, cur, st, err))
		if err == nil {
			return pi, trace, nil
		}
		if !errors.Is(err, ErrNoConvergence) {
			// Cancellation, invariant violations, and structural failures
			// are not convergence problems; the ladder must not mask them.
			return nil, trace, err
		}
		lastErr = err
	}
	return nil, trace, lastErr
}
