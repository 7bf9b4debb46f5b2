package experiments

import (
	"repro/internal/models"
	"repro/internal/pipeline"
)

// PolicyPoint compares one DPM decision scheme on the Markovian rpc model
// (an ablation the paper's Sect. 2.1 policy taxonomy motivates).
type PolicyPoint struct {
	// Policy names the scheme.
	Policy models.Policy
	// Metrics holds the Fig. 3 indices under the scheme, keyed by
	// rpcCase's index names.
	Metrics map[string]float64
}

// runPolicies evaluates fn on the Markovian rpc model under every DPM
// policy of the paper's taxonomy at the given shutdown timeout/period,
// with PolicyNone (the system without the DPM) as the baseline; fn gets
// the model's parameters and its own session. The swept parameter is the
// policy, which changes the DPM's behaviour — the structure of the state
// space — so each policy stages its own model rather than a rate point
// of a parametric sweep. The policies run concurrently (Config.Workers)
// and are reported in taxonomy order.
func runPolicies[T any](r *Runner, timeout float64, fn func(models.Policy, models.RPCParams, *pipeline.Session) (T, error)) ([]T, error) {
	policies := []models.Policy{
		models.PolicyNone,
		models.PolicyTrivial,
		models.PolicyTimeout,
		models.PolicyPredictive,
	}
	return RunPoints(policies, r.cfg.Workers, func(pol models.Policy) (T, error) {
		p := models.DefaultRPCParams()
		p.Policy = pol
		p.WithDPM = pol != models.PolicyNone
		p.ShutdownTimeout = timeout
		s, err := r.rpcSession(p)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(pol, p, s)
	})
}

// PolicyComparison solves the Markovian rpc model under every DPM policy
// at the given shutdown timeout/period (runPolicies) and returns the
// three Fig. 3 indices for each.
func (r *Runner) PolicyComparison(timeout float64) ([]PolicyPoint, error) {
	return runPolicies(r, timeout, func(pol models.Policy, _ models.RPCParams, s *pipeline.Session) (PolicyPoint, error) {
		rep, err := s.Phase2()
		if err != nil {
			return PolicyPoint{}, err
		}
		return PolicyPoint{Policy: pol, Metrics: rpcCase.indicesOf(rep.Values)}, nil
	})
}

// PolicyRows renders the comparison as table rows.
func PolicyRows(points []PolicyPoint) ([]string, [][]string) {
	header := []string{"policy", "throughput", "waiting_time", "energy_per_request"}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		row := []string{pt.Policy.String()}
		for _, ix := range rpcCase.indices {
			row = append(row, f(pt.Metrics[ix.name]))
		}
		rows = append(rows, row)
	}
	return header, rows
}
