package experiments

import (
	"repro/internal/models"
	"repro/internal/pipeline"
)

// StreamingMetrics are the four streaming indices of paper Fig. 4/6:
// average NIC energy per delivered frame, the probability of losing a
// frame to a buffer-full event (relative to frames sent), the probability
// of violating a real-time constraint on a buffer-empty event (relative
// to fetch attempts), and the overall quality of service (1 − miss).
type StreamingMetrics struct {
	EnergyPerFrame float64
	Loss           float64
	Miss           float64
	Quality        float64
}

// StreamingPoint is one x-axis point of Fig. 4/6: the PSP awake period
// (ms) with the with/without-DPM metric pairs.
type StreamingPoint struct {
	Period         float64
	WithDPM, NoDPM StreamingMetrics
}

// DefaultAwakePeriods is the paper's Fig. 4/6 sweep (0–800 ms). Period 0
// is represented by the smallest positive period of the sweep grid: with
// a vanishing period the NIC re-wakes immediately and the DPM has no
// effect, as the paper observes.
func DefaultAwakePeriods() []float64 {
	return []float64{5, 10, 25, 50, 100, 200, 300, 400, 600, 800}
}

func streamingMetricsFromValues(v map[string]float64) StreamingMetrics {
	delivered := v["frames_delivered"]
	missed := v["frames_missed"]
	sent := v["frames_sent"]
	var m StreamingMetrics
	if delivered > 0 {
		m.EnergyPerFrame = v["nic_energy"] / delivered
	}
	if sent > 0 {
		m.Loss = v["frames_lost"] / sent
	}
	if delivered+missed > 0 {
		m.Miss = missed / (delivered + missed)
	}
	m.Quality = 1 - m.Miss
	return m
}

// streamingParams returns the paper's parameters at the given scale.
func streamingParams(scale Scale) models.StreamingParams {
	p := models.DefaultStreamingParams()
	if scale == Quick {
		p.APCapacity, p.ClientCapacity = 3, 3
	}
	return p
}

// Fig4Markov reproduces paper Fig. 4: the Markovian streaming comparison
// across PSP awake periods, reported in period order. The with-DPM
// values come from dpmValues; the parametric slot is
// models.StreamingPeriodSlot.
func (r *Runner) Fig4Markov(periods []float64, scale Scale) ([]StreamingPoint, error) {
	if periods == nil {
		periods = DefaultAwakePeriods()
	}
	p0 := streamingParams(scale)
	p0.WithDPM = false
	s0, err := r.streamingSession(p0)
	if err != nil {
		return nil, err
	}
	rep0, err := s0.Phase2()
	if err != nil {
		return nil, err
	}
	base := streamingMetricsFromValues(rep0.Values)

	p := streamingParams(scale)
	p.ParametricPeriod = true
	param, err := r.streamingSession(p)
	if err != nil {
		return nil, err
	}
	vals, err := r.dpmValues(periods, param, func(P float64) (*pipeline.Session, error) {
		p := streamingParams(scale)
		p.AwakePeriod = P
		return r.streamingSession(p)
	})
	if err != nil {
		return nil, err
	}
	points := make([]StreamingPoint, len(periods))
	for i, v := range vals {
		points[i] = StreamingPoint{Period: periods[i], WithDPM: streamingMetricsFromValues(v), NoDPM: base}
	}
	return points, nil
}

// Fig4Rows renders Fig. 4/6 points as table rows.
func Fig4Rows(points []StreamingPoint) ([]string, [][]string) {
	header := []string{"awake_period_ms",
		"energy_per_frame_dpm", "energy_per_frame_nodpm",
		"loss_dpm", "loss_nodpm",
		"miss_dpm", "miss_nodpm",
		"quality_dpm", "quality_nodpm"}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		rows = append(rows, []string{
			f(pt.Period),
			f(pt.WithDPM.EnergyPerFrame), f(pt.NoDPM.EnergyPerFrame),
			f(pt.WithDPM.Loss), f(pt.NoDPM.Loss),
			f(pt.WithDPM.Miss), f(pt.NoDPM.Miss),
			f(pt.WithDPM.Quality), f(pt.NoDPM.Quality),
		})
	}
	return header, rows
}
