package experiments

import "repro/internal/models"

// PolicyPoint compares one DPM decision scheme on the Markovian rpc model
// (an ablation the paper's Sect. 2.1 policy taxonomy motivates).
type PolicyPoint struct {
	// Policy names the scheme.
	Policy models.Policy
	// Metrics holds the Fig. 3 indices under the scheme.
	Metrics RPCMetrics
}

// PolicyComparison solves the Markovian rpc model under every DPM policy
// at the given shutdown timeout/period and returns the three Fig. 3
// indices for each, with PolicyNone as the baseline. The policies are
// solved concurrently (Config.Workers) and reported in taxonomy order.
// The swept parameter here is the policy, which changes the DPM's
// behaviour — the structure of the state space — so this driver keeps the
// per-point generate+build path rather than the rate-parametric sweep.
func (r *Runner) PolicyComparison(timeout float64) ([]PolicyPoint, error) {
	policies := []models.Policy{
		models.PolicyNone,
		models.PolicyTrivial,
		models.PolicyTimeout,
		models.PolicyPredictive,
	}
	return RunPoints(policies, r.cfg.Workers, func(pol models.Policy) (PolicyPoint, error) {
		p := models.DefaultRPCParams()
		p.Policy = pol
		p.WithDPM = pol != models.PolicyNone
		p.ShutdownTimeout = timeout
		s, err := r.rpcSession(p)
		if err != nil {
			return PolicyPoint{}, err
		}
		rep, err := s.Phase2()
		if err != nil {
			return PolicyPoint{}, err
		}
		return PolicyPoint{
			Policy:  pol,
			Metrics: rpcMetricsFromValues(rep.Values),
		}, nil
	})
}

// PolicyRows renders the comparison as table rows.
func PolicyRows(points []PolicyPoint) ([]string, [][]string) {
	header := []string{"policy", "throughput", "waiting_time", "energy_per_request"}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		rows = append(rows, []string{
			pt.Policy.String(),
			f(pt.Metrics.Throughput),
			f(pt.Metrics.WaitingTime),
			f(pt.Metrics.EnergyPerRequest),
		})
	}
	return header, rows
}
