package experiments

import (
	"repro/internal/models"
	"repro/internal/pipeline"
)

// applyStreamingSimDefaults fills zero simulation settings with values
// sized for the streaming model (times in ms).
func (r *Runner) applyStreamingSimDefaults(s *pipeline.SimSettings) {
	if s.RunLength == 0 {
		s.RunLength = 400000
	}
	if s.Warmup == 0 {
		s.Warmup = 2000
	}
	if s.Replications == 0 {
		s.Replications = 30
	}
	if s.Seed == 0 {
		s.Seed = 20040628
	}
}

// Fig6General reproduces paper Fig. 6: the general streaming model
// (constant bit-rate video, deterministic PSP periods, Gaussian channel)
// simulated across awake periods. Sweep points and the replications
// within each run concurrently (Config.Workers).
func (r *Runner) Fig6General(periods []float64, scale Scale, settings pipeline.SimSettings) ([]StreamingPoint, error) {
	if periods == nil {
		periods = DefaultAwakePeriods()
	}
	r.applyStreamingSimDefaults(&settings)

	// The general model implements the real-time frame-deadline
	// semantics (a frame more than DeadlineSlack render periods late is
	// useless); the Markovian model abstracts from it — the source of the
	// qualitative differences the paper highlights between Fig. 4 and
	// Fig. 6. The cap covers the longest doze of the sweep.
	withDeadlines := func(p models.StreamingParams) models.StreamingParams {
		p.DeadlineDebtCap = 12
		p.DeadlineSlack = 2
		return p
	}

	run := func(p models.StreamingParams) (StreamingMetrics, error) {
		s, err := r.streamingSession(p)
		if err != nil {
			return StreamingMetrics{}, err
		}
		rep, err := s.Phase3(models.StreamingGeneralDistributions(p), settings)
		if err != nil {
			return StreamingMetrics{}, err
		}
		v := map[string]float64{
			"nic_energy":       rep.Estimates["nic_energy"].Mean,
			"frames_delivered": rep.Estimates["frames_delivered"].Mean,
			"frames_missed":    rep.Estimates["frames_missed"].Mean,
			"frames_sent":      rep.Estimates["frames_sent"].Mean,
			"frames_lost":      rep.Estimates["frames_lost"].Mean,
		}
		return streamingMetricsFromValues(v), nil
	}

	p0 := withDeadlines(streamingParams(scale))
	p0.WithDPM = false
	base, err := run(p0)
	if err != nil {
		return nil, err
	}

	return RunPoints(periods, r.cfg.Workers, func(P float64) (StreamingPoint, error) {
		p := withDeadlines(streamingParams(scale))
		p.AwakePeriod = P
		m, err := run(p)
		if err != nil {
			return StreamingPoint{}, err
		}
		return StreamingPoint{Period: P, WithDPM: m, NoDPM: base}, nil
	})
}
