package experiments

import "repro/internal/pipeline"

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

// RPCTradeoffCurves builds the Fig. 7 trade-off curves (waiting time vs
// energy per request) from already-computed Fig. 3 sweep results, so a
// caller who has both sweeps in hand pays no additional solves.
func RPCTradeoffCurves(markov, general []RPCPoint) *TradeoffCurves {
	curves := &TradeoffCurves{}
	for _, pt := range markov {
		curves.Markov = append(curves.Markov, TradeoffPoint{
			Knob: pt.Timeout, X: pt.WithDPM.WaitingTime, Y: pt.WithDPM.EnergyPerRequest,
		})
	}
	for _, pt := range general {
		curves.General = append(curves.General, TradeoffPoint{
			Knob: pt.Timeout, X: pt.WithDPM.WaitingTime, Y: pt.WithDPM.EnergyPerRequest,
		})
	}
	return curves
}

// StreamingTradeoffCurves builds the Fig. 8 trade-off curves (miss rate vs
// energy per frame) from already-computed Fig. 4/6 sweep results.
func StreamingTradeoffCurves(markov, general []StreamingPoint) *TradeoffCurves {
	curves := &TradeoffCurves{}
	for _, pt := range markov {
		curves.Markov = append(curves.Markov, TradeoffPoint{
			Knob: pt.Period, X: pt.WithDPM.Miss, Y: pt.WithDPM.EnergyPerFrame,
		})
	}
	for _, pt := range general {
		curves.General = append(curves.General, TradeoffPoint{
			Knob: pt.Period, X: pt.WithDPM.Miss, Y: pt.WithDPM.EnergyPerFrame,
		})
	}
	return curves
}

// Fig7Tradeoff reproduces paper Fig. 7: energy per request vs waiting
// time for the rpc system, on both the Markovian and the general model,
// across shutdown timeouts. The Markovian sweep runs the
// rate-parametric engine (one generation for all positive timeouts) and
// each model family is solved exactly once for the whole grid.
func (r *Runner) Fig7Tradeoff(timeouts []float64, settings pipeline.SimSettings) (*TradeoffCurves, error) {
	markov, err := r.Fig3Markov(timeouts)
	if err != nil {
		return nil, err
	}
	general, err := r.Fig3General(timeouts, settings)
	if err != nil {
		return nil, err
	}
	return RPCTradeoffCurves(markov, general), nil
}

// Fig8Tradeoff reproduces paper Fig. 8: energy per frame vs miss rate for
// the streaming system, on both the Markovian and the general model,
// across awake periods.
func (r *Runner) Fig8Tradeoff(periods []float64, scale Scale, settings pipeline.SimSettings) (*TradeoffCurves, error) {
	markov, err := r.Fig4Markov(periods, scale)
	if err != nil {
		return nil, err
	}
	general, err := r.Fig6General(periods, scale, settings)
	if err != nil {
		return nil, err
	}
	return StreamingTradeoffCurves(markov, general), nil
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
