package experiments

import (
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/measure"
	"repro/internal/models"
)

// TransientPoint is one time sample of the streaming start-up analysis:
// the probability that the client buffer is empty (a fetch arriving now
// would miss) at time t after stream start, with and without the DPM.
type TransientPoint struct {
	// Time is the sample instant (ms after start).
	Time float64
	// PEmptyDPM and PEmptyNoDPM are the buffer-empty probabilities.
	PEmptyDPM, PEmptyNoDPM float64
}

// StreamingStartupTransient analyses the start-up phase of the streaming
// system with the transient (uniformization) solver: how quickly the
// client-side buffer fills during the initial delay, and whether the PSP
// DPM perturbs that transient. An extension beyond the paper's
// steady-state-only Markovian analysis.
func (r *Runner) StreamingStartupTransient(times []float64, awakePeriod float64, scale Scale) ([]TransientPoint, error) {
	if len(times) == 0 {
		times = []float64{50, 150, 300, 500, 700, 1000, 1500, 2500, 4000}
	}
	// The buffer-empty predicate is a STATE_REWARD measure of the spec,
	// so the session labels the states where it holds as it generates.
	// One uniformization series per chain, with the predicate's indicator
	// as its reward, answers every sample time.
	empty := measure.Clause{Instance: "B", Action: "miss_frame", Kind: measure.StateReward, Value: 1}
	series := func(withDPM bool) (*ctmc.Series, error) {
		p := streamingParams(scale)
		p.WithDPM = withDPM
		p.AwakePeriod = awakePeriod
		a, err := models.BuildStreaming(p)
		if err != nil {
			return nil, err
		}
		c, err := r.session(a, []measure.Measure{{Name: "p_buffer_empty", Clauses: []measure.Clause{empty}}}).Chain()
		if err != nil {
			return nil, err
		}
		set, err := c.SelectStates(empty.Pred())
		if err != nil {
			return nil, err
		}
		indicator := make([]float64, c.N)
		for _, ci := range set {
			indicator[ci] = 1
		}
		return c.Series(r.cfg.Ctx, c.Initial, indicator), nil
	}
	withDPM, err := series(true)
	if err != nil {
		return nil, err
	}
	noDPM, err := series(false)
	if err != nil {
		return nil, err
	}

	out := make([]TransientPoint, 0, len(times))
	for _, t := range times {
		if t < 0 {
			return nil, fmt.Errorf("experiments: sample times must not be negative")
		}
		pD, _, err := withDPM.At(0, t)
		if err != nil {
			return nil, err
		}
		pN, _, err := noDPM.At(0, t)
		if err != nil {
			return nil, err
		}
		out = append(out, TransientPoint{Time: t, PEmptyDPM: pD, PEmptyNoDPM: pN})
	}
	return out, nil
}

// TransientRows renders transient points as table rows.
func TransientRows(points []TransientPoint) ([]string, [][]string) {
	header := []string{"time_ms", "p_buffer_empty_dpm", "p_buffer_empty_nodpm"}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		rows = append(rows, []string{f(pt.Time), f(pt.PEmptyDPM), f(pt.PEmptyNoDPM)})
	}
	return header, rows
}
