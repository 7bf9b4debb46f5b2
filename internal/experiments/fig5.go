package experiments

import (
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// ValidationPoint is one x-axis point of paper Fig. 5: the DPM shutdown
// timeout with the analytic (Markovian) server energy consumption and the
// simulated estimate of the general model run with exponential
// distributions, plus the no-DPM pair.
type ValidationPoint struct {
	Timeout float64
	// ExactDPM and SimDPM compare the with-DPM system.
	ExactDPM float64
	SimDPM   stats.Interval
	// ExactNoDPM and SimNoDPM compare the without-DPM system.
	ExactNoDPM float64
	SimNoDPM   stats.Interval
	// WithinCI reports whether both exact values fall inside their 90%
	// intervals.
	WithinCI bool
	// RelErrDPM is the relative error of the with-DPM estimate.
	RelErrDPM float64
}

// Fig5Validation reproduces paper Fig. 5: the cross-validation of the
// general rpc model against the Markovian one. The general model is
// simulated with exponential distributions matching the Markovian rates
// (30 runs, 90% confidence intervals in the paper's setting) and the
// server energy consumption is compared with the analytic solution.
// Each sweep point stages its model in one session and shares it between
// the analytic solution and the simulation; points run concurrently
// (settings.Workers, or Config.Workers) in timeout order.
func (r *Runner) Fig5Validation(timeouts []float64, settings pipeline.SimSettings) ([]ValidationPoint, error) {
	if timeouts == nil {
		timeouts = []float64{1, 5, 10, 15, 20, 25}
	}
	r.applyRPCSimDefaults(&settings)

	solve := func(p models.RPCParams) (float64, stats.Interval, error) {
		s, err := r.rpcSession(p)
		if err != nil {
			return 0, stats.Interval{}, err
		}
		exact, err := s.Phase2()
		if err != nil {
			return 0, stats.Interval{}, err
		}
		simRep, err := s.Phase3(models.RPCExponentialDistributions(p), settings)
		if err != nil {
			return 0, stats.Interval{}, err
		}
		return exact.Values["energy"], simRep.Estimates["energy"], nil
	}

	p0 := models.DefaultRPCParams()
	p0.WithDPM = false
	exact0, sim0, err := solve(p0)
	if err != nil {
		return nil, err
	}

	// Analytic with-DPM values: positive timeouts share one generated
	// state space and built chain (rpcTimeoutSweep); a non-positive
	// timeout is structurally different and is solved per point below,
	// alongside its simulation.
	exactOf := make([]float64, len(timeouts))
	exactDone := make([]bool, len(timeouts))
	var swept []float64
	var sweptIdx []int
	for i, T := range timeouts {
		if T > 0 {
			swept = append(swept, T)
			sweptIdx = append(sweptIdx, i)
		}
	}
	if len(swept) > 0 {
		reps, err := r.rpcTimeoutSweep(swept)
		if err != nil {
			return nil, err
		}
		for k, rep := range reps {
			exactOf[sweptIdx[k]] = rep.Values["energy"]
			exactDone[sweptIdx[k]] = true
		}
	}

	idx := make([]int, len(timeouts))
	for i := range idx {
		idx[i] = i
	}
	return RunPoints(idx, settings.Workers, func(i int) (ValidationPoint, error) {
		T := timeouts[i]
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		s, err := r.rpcSession(p)
		if err != nil {
			return ValidationPoint{}, err
		}
		exact1 := exactOf[i]
		if !exactDone[i] {
			rep, err := s.Phase2()
			if err != nil {
				return ValidationPoint{}, err
			}
			exact1 = rep.Values["energy"]
		}
		simRep, err := s.Phase3(models.RPCExponentialDistributions(p), settings)
		if err != nil {
			return ValidationPoint{}, err
		}
		sim1 := simRep.Estimates["energy"]
		relErr := 0.0
		if exact1 != 0 {
			relErr = abs(sim1.Mean-exact1) / exact1
		}
		return ValidationPoint{
			Timeout:    T,
			ExactDPM:   exact1,
			SimDPM:     sim1,
			ExactNoDPM: exact0,
			SimNoDPM:   sim0,
			WithinCI:   sim1.Contains(exact1) && sim0.Contains(exact0),
			RelErrDPM:  relErr,
		}, nil
	})
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Fig5Rows renders validation points as table rows.
func Fig5Rows(points []ValidationPoint) ([]string, [][]string) {
	header := []string{"timeout_ms",
		"energy_exact_dpm", "energy_sim_dpm", "ci_halfwidth",
		"energy_exact_nodpm", "energy_sim_nodpm",
		"within_ci", "rel_err_dpm"}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		rows = append(rows, []string{
			f(pt.Timeout),
			f(pt.ExactDPM), f(pt.SimDPM.Mean), f(pt.SimDPM.HalfWidth),
			f(pt.ExactNoDPM), f(pt.SimNoDPM.Mean),
			boolStr(pt.WithinCI), f(pt.RelErrDPM),
		})
	}
	return header, rows
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
