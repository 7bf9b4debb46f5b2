package ctmc

import "errors"

// Escalation selects the convergence-failure policy of SteadyStateTraced.
type Escalation int

const (
	// EscalateNever surfaces a ConvergenceError as-is (the default).
	EscalateNever Escalation = iota
	// EscalateLadder retries a solve that failed with a ConvergenceError
	// once, with MaxIterations raised ×4 (rung 1, "raise-max-iterations").
	// Both attempts are recorded in the SolveTrace, and whether the retry
	// runs is a pure function of the solve's input — options and chain —
	// never of scheduling, so an escalated result is reproducible at any
	// worker count and flagged by its trace, never silent. Only a
	// ConvergenceError triggers the retry; cancellation, invariant
	// violations, and structural errors surface as-is.
	EscalateLadder
)

// escalateIterFactor is the MaxIterations multiplier of the retry.
const escalateIterFactor = 4

// SolveAttempt records one attempt of an escalated solve.
type SolveAttempt struct {
	// Rung is 0 for the base attempt and 1 for the retry.
	Rung int
	// Action names the attempt: "base" (or "forced-nonconvergence" when
	// fault injection failed the base attempt), or "raise-max-iterations".
	Action string
	// Sweep is always SweepGaussSeidel. It stays only because the
	// perfbench harness counts solves by Sweep.String(); it goes with
	// Cycles when the harness stops reading them.
	Sweep Sweep
	// MaxIterations is the attempt's resolved iteration budget.
	MaxIterations int
	// Converged reports whether the attempt succeeded.
	Converged bool
	// Iterations and Residual are the attempt's final iteration count and
	// residual — the failure point of a failed attempt, the convergence
	// point of a successful one.
	Iterations int
	Residual   float64
	// Cycles is always 0: Gauss-Seidel has no outer loop. Like Sweep it
	// stays only because the perfbench harness reads it.
	Cycles int
}

// SolveTrace is the attempt history of an escalated solve, attached to
// sweep reports so escalated points are flagged and reproducible.
type SolveTrace struct {
	// Attempts lists every attempt in rung order; Attempts[0] is the base
	// attempt.
	Attempts []SolveAttempt
}

// Escalated reports whether the solve needed the retry (any attempt
// beyond the base one).
func (t *SolveTrace) Escalated() bool { return t != nil && len(t.Attempts) > 1 }

// ResolveSolve reports the configuration a SteadyState call with these
// options runs: defaults filled. It fails when the chain has no single
// reachable recurrent component to solve. The escalation retry starts
// from this resolved configuration.
func (c *CTMC) ResolveSolve(opts SolveOptions) (SolveOptions, error) {
	opts = solveDefaults(opts)
	if _, err := c.ensurePlan(); err != nil {
		return opts, err
	}
	return opts, nil
}

// attemptRecord summarizes one solve outcome for the trace. On success
// the statistics come from the solver's own report; on failure from the
// convergence error.
func attemptRecord(rung int, action string, cfg SolveOptions, st solveStats, err error) SolveAttempt {
	a := SolveAttempt{
		Rung:          rung,
		Action:        action,
		Sweep:         SweepGaussSeidel,
		MaxIterations: cfg.MaxIterations,
		Converged:     err == nil,
		Iterations:    st.Iterations,
		Residual:      st.Residual,
	}
	var ce *ConvergenceError
	if errors.As(err, &ce) {
		a.Iterations = ce.Iterations
		a.Residual = ce.Residual
	}
	return a
}

// SteadyStateTraced is SteadyState with an attempt trace and, when
// opts.Escalation is EscalateLadder, the deterministic retry described
// there. On success the trace's last attempt is the converged one;
// Escalated() reports whether the base configuration sufficed. On failure
// the trace records every failed attempt and the returned error is the
// last one's.
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

// EscalateFrom runs the escalation retry for options whose base attempt
// already failed with baseErr, a ConvergenceError. The returned trace
// records that base attempt as rung 0 under the given action — "base", or
// "forced-nonconvergence" when fault injection failed it — followed by
// the retry. It exists separately from SteadyStateTraced so the sweep's
// batched path can escalate exactly the lanes that failed: a batched
// lane's failure is bit-identical to the one-lane base attempt, so
// starting from the retry reproduces SteadyStateTraced without re-running
// the base solve.
func (c *CTMC) EscalateFrom(opts SolveOptions, action string, baseErr error) ([]float64, *SolveTrace, error) {
	cfg, err := c.ResolveSolve(opts)
	if err != nil {
		return nil, nil, err
	}
	trace := &SolveTrace{Attempts: []SolveAttempt{attemptRecord(0, action, cfg, solveStats{}, baseErr)}}
	cfg.MaxIterations *= escalateIterFactor
	pi, st, err := c.steadyStateStats(cfg)
	trace.Attempts = append(trace.Attempts, attemptRecord(1, "raise-max-iterations", cfg, st, err))
	if err != nil {
		return nil, trace, err
	}
	return pi, trace, nil
}
