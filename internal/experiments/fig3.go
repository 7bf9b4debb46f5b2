package experiments

import (
	"repro/internal/models"
	"repro/internal/pipeline"
)

// RPCMetrics are the three rpc performance indices of paper Fig. 3,
// derived from the raw rewards: throughput (completed requests per ms),
// mean waiting time per request (ms, by Little's law from the waiting
// probability), and energy per request.
type RPCMetrics struct {
	Throughput       float64
	WaitingTime      float64
	EnergyPerRequest float64
}

// RPCPoint is one x-axis point of Fig. 3: the DPM shutdown timeout (ms)
// with the with/without-DPM metric pairs.
type RPCPoint struct {
	Timeout float64
	// WithDPM and NoDPM carry the two systems' metrics.
	WithDPM, NoDPM RPCMetrics
}

// rpcMetricsFromValues derives the Fig. 3 indices from raw rewards.
func rpcMetricsFromValues(v map[string]float64) RPCMetrics {
	thr := v["throughput"]
	m := RPCMetrics{Throughput: thr}
	if thr > 0 {
		m.WaitingTime = v["waiting_time"] / thr
		m.EnergyPerRequest = v["energy"] / thr
	}
	return m
}

// DefaultRPCTimeouts is the paper's Fig. 3 sweep (0–25 ms).
func DefaultRPCTimeouts() []float64 {
	return []float64{0, 0.5, 1, 2, 3, 5, 7.5, 10, 12.5, 15, 20, 25}
}

// rpcWithDPM solves the with-DPM rpc model at each shutdown timeout
// (dpmValues; the parametric slot is models.RPCTimeoutSlot).
func (r *Runner) rpcWithDPM(timeouts []float64) ([]map[string]float64, error) {
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	param, err := r.rpcSession(p)
	if err != nil {
		return nil, err
	}
	return r.dpmValues(timeouts, param, func(T float64) (*pipeline.Session, error) {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		return r.rpcSession(p)
	})
}

// Fig3Markov reproduces the left-hand side of paper Fig. 3: the Markovian
// rpc comparison across DPM shutdown timeouts (rpcWithDPM), reported in
// timeout order.
func (r *Runner) Fig3Markov(timeouts []float64) ([]RPCPoint, error) {
	if timeouts == nil {
		timeouts = DefaultRPCTimeouts()
	}
	// The no-DPM system does not depend on the timeout: solve it once.
	p0 := models.DefaultRPCParams()
	p0.WithDPM = false
	s0, err := r.rpcSession(p0)
	if err != nil {
		return nil, err
	}
	rep0, err := s0.Phase2()
	if err != nil {
		return nil, err
	}
	base := rpcMetricsFromValues(rep0.Values)
	vals, err := r.rpcWithDPM(timeouts)
	if err != nil {
		return nil, err
	}
	points := make([]RPCPoint, len(timeouts))
	for i, v := range vals {
		points[i] = RPCPoint{Timeout: timeouts[i], WithDPM: rpcMetricsFromValues(v), NoDPM: base}
	}
	return points, nil
}

// Fig3General reproduces the right-hand side of paper Fig. 3: the general
// rpc model (deterministic timings, Gaussian channel) simulated across
// deterministic shutdown timeouts. Sweep points and the replications
// within each run concurrently (Config.Workers); results are
// bit-identical at any worker count.
func (r *Runner) Fig3General(timeouts []float64, settings pipeline.SimSettings) ([]RPCPoint, error) {
	if timeouts == nil {
		timeouts = DefaultRPCTimeouts()
	}
	r.applyRPCSimDefaults(&settings)

	p0 := models.DefaultRPCParams()
	p0.WithDPM = false
	s0, err := r.rpcSession(p0)
	if err != nil {
		return nil, err
	}
	rep0, err := s0.Phase3(models.RPCGeneralDistributions(p0), settings)
	if err != nil {
		return nil, err
	}
	base := rpcMetricsFromEstimates(rep0)

	return RunPoints(timeouts, r.cfg.Workers, func(T float64) (RPCPoint, error) {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		s, err := r.rpcSession(p)
		if err != nil {
			return RPCPoint{}, err
		}
		rep, err := s.Phase3(models.RPCGeneralDistributions(p), settings)
		if err != nil {
			return RPCPoint{}, err
		}
		return RPCPoint{
			Timeout: T,
			WithDPM: rpcMetricsFromEstimates(rep),
			NoDPM:   base,
		}, nil
	})
}

func rpcMetricsFromEstimates(rep *pipeline.Phase3Report) RPCMetrics {
	v := map[string]float64{
		"throughput":   rep.Estimates["throughput"].Mean,
		"waiting_time": rep.Estimates["waiting_time"].Mean,
		"energy":       rep.Estimates["energy"].Mean,
	}
	return rpcMetricsFromValues(v)
}

// applyRPCSimDefaults fills zero simulation settings with values sized for
// the rpc model (times in ms).
func (r *Runner) applyRPCSimDefaults(s *pipeline.SimSettings) {
	if s.RunLength == 0 {
		s.RunLength = 20000
	}
	if s.Warmup == 0 {
		s.Warmup = 500
	}
	if s.Replications == 0 {
		s.Replications = 30
	}
	if s.Seed == 0 {
		s.Seed = 20040628 // DSN 2004
	}
}

// Fig3Rows renders Fig. 3 points as table rows.
func Fig3Rows(points []RPCPoint) ([]string, [][]string) {
	header := []string{"timeout_ms",
		"thr_dpm", "thr_nodpm",
		"wait_dpm", "wait_nodpm",
		"energy_per_req_dpm", "energy_per_req_nodpm"}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		rows = append(rows, []string{
			f(pt.Timeout),
			f(pt.WithDPM.Throughput), f(pt.NoDPM.Throughput),
			f(pt.WithDPM.WaitingTime), f(pt.NoDPM.WaitingTime),
			f(pt.WithDPM.EnergyPerRequest), f(pt.NoDPM.EnergyPerRequest),
		})
	}
	return header, rows
}
