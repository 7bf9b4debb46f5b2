package experiments

import (
	"fmt"
	"math"

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
// the given energy budget powers the rpc server, starting from the
// model's initial state: the root of E(t) = budget, where E is the
// expected energy accumulated over [0, t] (one ctmc.Series per chain).
// The four policies are analysed concurrently (Config.Workers) and
// reported in taxonomy order. The sweep is over policies — a structural
// parameter — so each point stages its own state space (sessions add the
// measures' state predicates automatically).
func (r *Runner) BatteryLifetime(budget, timeout float64) ([]BatteryPoint, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("experiments: budget must be positive")
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

		// The energy rate and the request throughput are linear in the
		// distribution, so each is one per-state reward vector: its value
		// on the distribution concentrated in that state.
		cm, err := measure.Compile(models.RPCMeasures(p), chain)
		if err != nil {
			return BatteryPoint{}, err
		}
		power, served := make([]float64, chain.N), make([]float64, chain.N)
		unit := make([]float64, chain.N)
		for i := range unit {
			unit[i] = 1
			v := cm.Eval(chain, unit, nil)
			power[i], served[i] = v["energy"], v["throughput"]
			unit[i] = 0
		}
		series := chain.Series(r.cfg.Ctx, chain.Initial, power, served)

		// Newton's method on E(t) − budget, whose derivative is the energy
		// rate, from t = 0, so that its first step is budget ÷ e(0). Once
		// the steps have bracketed the root in [lo, hi], a step that leaves
		// the bracket, or fails to halve the one before it, bisects
		// instead. It stops once the step or the bracket is within 1e-12
		// of t.
		t, lo, hi, last := 0.0, 0.0, math.Inf(1), math.Inf(1)
		for {
			rate, used, err := series.At(0, t)
			if err != nil {
				return BatteryPoint{}, err
			}
			if used < budget {
				lo = t
			} else {
				hi = t
			}
			step := (used - budget) / rate
			if math.Abs(step) <= 1e-12*t || hi-lo <= 1e-12*t {
				break
			}
			if next := t - step; !math.IsInf(hi, 1) && (next <= lo || next >= hi || 2*math.Abs(step) > math.Abs(last)) {
				step = t - (lo+hi)/2
			}
			t, last = t-step, step
		}
		_, requestsServed, err := series.At(1, t)
		if err != nil {
			return BatteryPoint{}, err
		}
		return BatteryPoint{
			Policy:         pol,
			Lifetime:       t,
			RequestsServed: requestsServed,
			MeanPower:      budget / t,
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
