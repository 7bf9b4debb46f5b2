package experiments

import (
	"fmt"

	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
)

// BatteryPoint reports the battery-lifetime analysis of one rpc
// configuration: the time until a finite energy budget is exhausted
// (transient analysis, starting from the real initial state rather than
// steady state) and the number of requests served by then — the
// "battery-powered appliance" question behind the paper's title.
type BatteryPoint struct {
	// Policy names the DPM configuration.
	Policy models.Policy
	// Lifetime is the model time at which the budget runs out.
	Lifetime float64
	// RequestsServed is the expected number of completed requests within
	// the lifetime.
	RequestsServed float64
	// MeanPower is the average power drawn over the lifetime.
	MeanPower float64
}

// BatteryLifetime computes, for every DPM policy, how long a battery with
// the given energy budget powers the rpc server, by integrating the
// transient energy rate of the CTMC (uniformization steps of dt). The
// four policies are analysed concurrently (Config.Workers) and reported
// in taxonomy order. The sweep is over policies — a structural parameter
// — so each point stages its own state space (sessions add the measures'
// state predicates automatically); the repeated uniformization steps at
// constant dt reuse one cached Poisson weight vector per chain
// (ctmc.TransientFromCtx).
func (r *Runner) BatteryLifetime(budget, timeout, dt float64) ([]BatteryPoint, error) {
	if budget <= 0 || dt <= 0 {
		return nil, fmt.Errorf("experiments: budget and dt must be positive")
	}
	policies := []models.Policy{
		models.PolicyNone,
		models.PolicyTrivial,
		models.PolicyTimeout,
		models.PolicyPredictive,
	}
	return RunPoints(policies, r.cfg.Workers, func(pol models.Policy) (BatteryPoint, error) {
		p := models.DefaultRPCParams()
		p.Policy = pol
		p.WithDPM = pol != models.PolicyNone
		p.ShutdownTimeout = timeout
		s, err := r.rpcSession(p)
		if err != nil {
			return BatteryPoint{}, err
		}
		chain, err := s.Chain()
		if err != nil {
			return BatteryPoint{}, err
		}

		// The energy measure and the served-request selection are compiled
		// once and evaluated at every integration step.
		var energy []measure.Measure
		for _, ms := range models.RPCMeasures(p) {
			if ms.Name == "energy" {
				energy = append(energy, ms)
			}
		}
		energyRate, err := measure.Compile(energy, chain)
		if err != nil {
			return BatteryPoint{}, err
		}
		requests := chain.SelectAll(nil, func(label string) bool {
			return lts.LabelInvolves(label, "C.process_result_packet")
		})[0]
		energyAt := func(pi []float64) float64 {
			return energyRate.Eval(chain, pi, nil)["energy"]
		}
		throughputAt := func(pi []float64) float64 {
			f := chain.Flow(pi, nil)
			return f.Throughput(requests)
		}

		// Trapezoidal integration of the transient energy rate until the
		// budget is spent.
		pi := append([]float64(nil), chain.Initial...)
		eRate, tRate := energyAt(pi), throughputAt(pi)
		var (
			elapsed  float64
			consumed float64
			served   float64
		)
		const maxSteps = 1_000_000
		for step := 0; consumed < budget; step++ {
			if step >= maxSteps {
				return BatteryPoint{}, fmt.Errorf("experiments: battery integration exceeded %d steps", maxSteps)
			}
			next, err := chain.TransientFromCtx(r.cfg.Ctx, pi, dt, 1e-9)
			if err != nil {
				return BatteryPoint{}, err
			}
			eNext, tNext := energyAt(next), throughputAt(next)
			dE := (eRate + eNext) / 2 * dt
			dS := (tRate + tNext) / 2 * dt
			if consumed+dE >= budget {
				// Interpolate the crossing inside the step.
				frac := (budget - consumed) / dE
				elapsed += frac * dt
				served += frac * dS
				consumed = budget
			} else {
				consumed += dE
				served += dS
				elapsed += dt
			}
			pi, eRate, tRate = next, eNext, tNext
		}
		mp := 0.0
		if elapsed > 0 {
			mp = budget / elapsed
		}
		return BatteryPoint{
			Policy:         pol,
			Lifetime:       elapsed,
			RequestsServed: served,
			MeanPower:      mp,
		}, nil
	})
}

// BatteryRows renders battery points as table rows.
func BatteryRows(points []BatteryPoint) ([]string, [][]string) {
	header := []string{"policy", "lifetime_ms", "requests_served", "mean_power"}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		rows = append(rows, []string{
			pt.Policy.String(), f(pt.Lifetime), f(pt.RequestsServed), f(pt.MeanPower),
		})
	}
	return header, rows
}
