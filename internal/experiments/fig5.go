package experiments

import (
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// ValidationPoint is one x-axis point of paper Fig. 5: the DPM shutdown
// timeout with the analytic (Markovian) server energy consumption and the
// simulated estimate of the same model, plus the no-DPM pair.
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
// general rpc model against the Markovian one. The simulator runs the
// Markovian model with no duration overrides, so every activity draws
// from the exponential its rate declares (30 runs, 90% confidence
// intervals in the paper's setting), and the server energy consumption is
// compared with the analytic solution (dpmValues). The simulated points
// run concurrently (Config.Workers) and are reported in timeout order.
func (r *Runner) Fig5Validation(timeouts []float64, settings pipeline.SimSettings) ([]ValidationPoint, error) {
	if timeouts == nil {
		timeouts = []float64{1, 5, 10, 15, 20, 25}
	}
	settings = rpcCase.simSettings(settings)

	s0, _, err := rpcCase.model(r, Full, variant{})
	if err != nil {
		return nil, err
	}
	rep0, err := s0.Phase2()
	if err != nil {
		return nil, err
	}
	simRep0, err := s0.Phase3(nil, settings)
	if err != nil {
		return nil, err
	}
	exact0, sim0 := rep0.Values["energy"], simRep0.Estimates["energy"]
	exact, err := r.dpmValues(rpcCase, Full, timeouts)
	if err != nil {
		return nil, err
	}

	idx := make([]int, len(timeouts))
	for i := range idx {
		idx[i] = i
	}
	return RunPoints(idx, r.cfg.Workers, func(i int) (ValidationPoint, error) {
		T := timeouts[i]
		s, _, err := rpcCase.model(r, Full, variant{dpm: true, knob: T})
		if err != nil {
			return ValidationPoint{}, err
		}
		exact1 := exact[i]["energy"]
		simRep, err := s.Phase3(nil, settings)
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
