package experiments

import (
	"cmp"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Comparison is one x-axis point of a DPM comparison (paper Fig. 1): the
// DPM's knob value with the case study's indices of the system with and
// without the DPM, keyed by index name.
type Comparison struct {
	// Knob is the DPM parameter (shutdown timeout or awake period, ms).
	Knob float64
	// WithDPM and NoDPM carry the two systems' indices.
	WithDPM, NoDPM map[string]float64
}

// index is one performance index of a case study: the stem of its printed
// columns and its formula over the raw measure values.
type index struct {
	name string
	of   func(v map[string]float64) float64
}

// variant selects one model of a case study: the zero value is the
// system without the DPM; dpm adds the DPM at knob, or, with parametric,
// with the knob's rate left as a parametric slot. general selects the
// general model's durations in place of the exponential ones.
type variant struct {
	dpm, parametric, general bool
	knob                     float64
}

// caseStudy describes one of the paper's two appliances to the
// comparison drivers, which apply the same procedure to both.
type caseStudy struct {
	knob    string    // the knob's column header
	grid    []float64 // the paper's knob grid
	indices []index
	sim     pipeline.SimSettings // simulation defaults (times in ms)
	// model returns the session of variant v at scale and, for a general
	// variant, its duration overrides.
	model func(r *Runner, scale Scale, v variant) (*pipeline.Session, map[sim.Activity]dist.Distribution, error)
}

// ratio is a ÷ b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

// rpcCase is the rpc study of paper Fig. 3: throughput (completed
// requests per ms), mean waiting time per request (ms, by Little's law
// from the waiting probability) and energy per request, against the DPM
// shutdown timeout.
var rpcCase = &caseStudy{
	knob: "timeout_ms",
	grid: []float64{0, 0.5, 1, 2, 3, 5, 7.5, 10, 12.5, 15, 20, 25},
	indices: []index{
		{"thr", func(v map[string]float64) float64 { return v["throughput"] }},
		{"wait", func(v map[string]float64) float64 { return ratio(v["waiting_time"], v["throughput"]) }},
		{"energy_per_req", func(v map[string]float64) float64 { return ratio(v["energy"], v["throughput"]) }},
	},
	sim: pipeline.SimSettings{RunLength: 20000, Warmup: 500, Replications: 30, Seed: 20040628}, // DSN 2004
	model: func(r *Runner, _ Scale, v variant) (*pipeline.Session, map[sim.Activity]dist.Distribution, error) {
		p := models.DefaultRPCParams()
		p.WithDPM = v.dpm
		p.ParametricTimeout = v.parametric
		if v.dpm && !v.parametric {
			p.ShutdownTimeout = v.knob
		}
		s, err := r.rpcSession(p)
		if err != nil || !v.general {
			return s, nil, err
		}
		return s, models.RPCGeneralDistributions(p), nil
	},
}

// streamingCase is the streaming study of paper Figs. 4 and 6: average
// NIC energy per delivered frame, the probability of losing a frame to a
// buffer-full event (relative to frames sent), the probability of
// violating a real-time constraint on a buffer-empty event (relative to
// fetch attempts) and the overall quality of service (1 − miss), against
// the PSP awake period. Period 0 is represented by the smallest positive
// period of the grid: with a vanishing period the NIC re-wakes
// immediately and the DPM has no effect, as the paper observes.
var streamingCase = &caseStudy{
	knob: "awake_period_ms",
	grid: []float64{5, 10, 25, 50, 100, 200, 300, 400, 600, 800},
	indices: []index{
		{"energy_per_frame", func(v map[string]float64) float64 { return ratio(v["nic_energy"], v["frames_delivered"]) }},
		{"loss", func(v map[string]float64) float64 { return ratio(v["frames_lost"], v["frames_sent"]) }},
		{"miss", streamingMiss},
		{"quality", func(v map[string]float64) float64 { return 1 - streamingMiss(v) }},
	},
	sim: pipeline.SimSettings{RunLength: 400000, Warmup: 2000, Replications: 30, Seed: 20040628},
	model: func(r *Runner, scale Scale, v variant) (*pipeline.Session, map[sim.Activity]dist.Distribution, error) {
		p := streamingParams(scale)
		p.WithDPM = v.dpm
		p.ParametricPeriod = v.parametric
		if v.dpm && !v.parametric {
			p.AwakePeriod = v.knob
		}
		if v.general {
			// The general model implements the real-time frame-deadline
			// semantics (a frame more than DeadlineSlack render periods
			// late is useless); the Markovian model abstracts from it —
			// the source of the qualitative differences the paper
			// highlights between Fig. 4 and Fig. 6. The cap covers the
			// longest doze of the grid.
			p.DeadlineDebtCap, p.DeadlineSlack = 12, 2
		}
		a, err := models.BuildStreaming(p)
		if err != nil {
			return nil, nil, err
		}
		s := r.session(a, models.StreamingMeasures(p))
		if !v.general {
			return s, nil, nil
		}
		return s, models.StreamingGeneralDistributions(p), nil
	},
}

func streamingMiss(v map[string]float64) float64 {
	missed := v["frames_missed"]
	return ratio(missed, v["frames_delivered"]+missed)
}

// streamingParams returns the paper's parameters at the given scale.
func streamingParams(scale Scale) models.StreamingParams {
	p := models.DefaultStreamingParams()
	if scale == Quick {
		p.APCapacity, p.ClientCapacity = 3, 3
	}
	return p
}

// indicesOf derives the case study's indices from raw measure values.
func (c *caseStudy) indicesOf(v map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(c.indices))
	for _, ix := range c.indices {
		m[ix.name] = ix.of(v)
	}
	return m
}

// simSettings fills the zero fields of s with the case study's defaults.
func (c *caseStudy) simSettings(s pipeline.SimSettings) pipeline.SimSettings {
	s.RunLength = cmp.Or(s.RunLength, c.sim.RunLength)
	s.Warmup = cmp.Or(s.Warmup, c.sim.Warmup)
	s.Replications = cmp.Or(s.Replications, c.sim.Replications)
	s.Seed = cmp.Or(s.Seed, c.sim.Seed)
	return s
}

// compareMarkov is the Markovian phase of a comparison (paper Fig. 3
// left, Fig. 4): the no-DPM system, which does not depend on the knob, is
// solved once and the with-DPM one at every knob of grid (dpmValues;
// nil selects the paper's grid), reported in grid order.
func (r *Runner) compareMarkov(c *caseStudy, scale Scale, grid []float64) ([]Comparison, error) {
	if grid == nil {
		grid = c.grid
	}
	s0, _, err := c.model(r, scale, variant{})
	if err != nil {
		return nil, err
	}
	rep0, err := s0.Phase2()
	if err != nil {
		return nil, err
	}
	base := c.indicesOf(rep0.Values)
	vals, err := r.dpmValues(c, scale, grid)
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(grid))
	for i, v := range vals {
		out[i] = Comparison{Knob: grid[i], WithDPM: c.indicesOf(v), NoDPM: base}
	}
	return out, nil
}

// compareGeneral is the general phase of a comparison (paper Fig. 3
// right, Fig. 6): the general model simulated without the DPM once and
// with it at every knob of grid (nil selects the paper's grid). Zero
// fields of settings take the case study's defaults. Knob points and the
// replications within each run concurrently (Config.Workers); results
// are bit-identical at any worker count.
func (r *Runner) compareGeneral(c *caseStudy, scale Scale, grid []float64, settings pipeline.SimSettings) ([]Comparison, error) {
	if grid == nil {
		grid = c.grid
	}
	settings = c.simSettings(settings)
	run := func(v variant) (map[string]float64, error) {
		s, dists, err := c.model(r, scale, v)
		if err != nil {
			return nil, err
		}
		rep, err := s.Phase3(dists, settings)
		if err != nil {
			return nil, err
		}
		means := make(map[string]float64, len(rep.Estimates))
		for name, e := range rep.Estimates {
			means[name] = e.Mean
		}
		return c.indicesOf(means), nil
	}
	base, err := run(variant{general: true})
	if err != nil {
		return nil, err
	}
	return RunPoints(grid, r.cfg.Workers, func(x float64) (Comparison, error) {
		m, err := run(variant{dpm: true, knob: x, general: true})
		return Comparison{Knob: x, WithDPM: m, NoDPM: base}, err
	})
}

// rows renders comparisons as table rows: the knob, then every index with
// and without the DPM.
func (c *caseStudy) rows(points []Comparison) ([]string, [][]string) {
	header := []string{c.knob}
	for _, ix := range c.indices {
		header = append(header, ix.name+"_dpm", ix.name+"_nodpm")
	}
	rows := make([][]string, 0, len(points))
	for _, pt := range points {
		row := []string{f(pt.Knob)}
		for _, ix := range c.indices {
			row = append(row, f(pt.WithDPM[ix.name]), f(pt.NoDPM[ix.name]))
		}
		rows = append(rows, row)
	}
	return header, rows
}

// TradeoffPoint is one point of the energy/quality trade-off curves of
// paper Figs. 7 and 8: the x-coordinate is the performance penalty
// (waiting time for rpc, miss rate for streaming), the y-coordinate the
// energy cost per request/frame, parameterized by the DPM control knob.
type TradeoffPoint struct {
	// Knob is the DPM parameter (shutdown timeout or awake period, ms).
	Knob float64
	// X is the performance penalty; Y the energy cost.
	X, Y float64
}

// TradeoffCurves pairs the Markovian and general curves of a trade-off
// figure.
type TradeoffCurves struct {
	Markov, General []TradeoffPoint
}

// tradeoff builds the trade-off curves of indices x and y (Figs. 7 and 8)
// from already-computed Markovian and general comparisons, so a caller
// who has both in hand pays no additional solves.
func tradeoff(markov, general []Comparison, x, y string) *TradeoffCurves {
	curve := func(points []Comparison) []TradeoffPoint {
		var out []TradeoffPoint
		for _, pt := range points {
			out = append(out, TradeoffPoint{Knob: pt.Knob, X: pt.WithDPM[x], Y: pt.WithDPM[y]})
		}
		return out
	}
	return &TradeoffCurves{Markov: curve(markov), General: curve(general)}
}

// ParetoDominated returns the indices of points dominated by another
// point of the same curve (strictly worse in one coordinate, not better
// in the other) — the paper observes such sub-optimal points on the
// general rpc curve near the knee.
func ParetoDominated(points []TradeoffPoint) []int {
	var out []int
	for i, p := range points {
		for j, q := range points {
			if i == j {
				continue
			}
			if q.X <= p.X && q.Y <= p.Y && (q.X < p.X || q.Y < p.Y) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// TradeoffRows renders trade-off curves as table rows.
func TradeoffRows(c *TradeoffCurves, xName, yName string) ([]string, [][]string) {
	header := []string{"knob_ms", "model", xName, yName}
	var rows [][]string
	for _, p := range c.Markov {
		rows = append(rows, []string{f(p.Knob), "markov", f(p.X), f(p.Y)})
	}
	for _, p := range c.General {
		rows = append(rows, []string{f(p.Knob), "general", f(p.X), f(p.Y)})
	}
	return header, rows
}
