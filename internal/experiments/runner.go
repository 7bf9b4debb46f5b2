package experiments

import (
	"repro/internal/aemilia"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// Runner executes the paper's experiments against one injected
// pipeline.Config. All scheduling state — worker count, cancellation
// context, result store — lives in the config; nothing on the experiment
// hot path reads mutable package globals. Every model a Runner touches
// runs on a session of its own; within it the model is elaborated once,
// its state space generated once and its chain built once, however many
// points a figure sweeps on it. The config's Store, when set, shares
// solved results across sessions and runs.
//
// Every Markovian analysis generates folded (pipeline.Spec.Minimize):
// vanishing states are eliminated during generation, which preserves
// every measure. Phase 1 and the simulator never fold.
//
// A Runner is safe for concurrent use: sessions single-flight their
// stages and the config is never mutated after construction.
type Runner struct {
	cfg pipeline.Config
	// unfolded makes the Runner's sessions generate the full product
	// (tests only: the oracle of folding).
	unfolded bool
}

// NewRunner returns a Runner over cfg. A non-positive cfg.Workers is
// normalized to 1 (sequential); every other field is used as given.
func NewRunner(cfg pipeline.Config) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &Runner{cfg: cfg}
}

// dpmValues solves the with-DPM model at every knob value x of grid
// (shutdown timeout or awake period) and returns the measure values in
// grid order. The positive values share one generated state space and
// built chain: they run as one rate-parametric sweep of param, whose slot
// takes 1/x (the value a fresh build at x would use). A non-positive
// value makes the DPM action immediate — a structurally different model
// — and is solved on its own session, at(x); such points run
// concurrently (Config.Workers).
func (r *Runner) dpmValues(grid []float64, param *pipeline.Session, at func(x float64) (*pipeline.Session, error)) ([]map[string]float64, error) {
	vals := make([]map[string]float64, len(grid))
	var swept [][]float64
	var sweptIdx, fallback []int
	for i, x := range grid {
		if x > 0 {
			swept = append(swept, []float64{1 / x})
			sweptIdx = append(sweptIdx, i)
		} else {
			fallback = append(fallback, i)
		}
	}
	if len(swept) > 0 {
		reps, err := param.Sweep(swept)
		if err != nil {
			return nil, err
		}
		for k, rep := range reps {
			vals[sweptIdx[k]] = rep.Values
		}
	}
	solved, err := RunPoints(fallback, r.cfg.Workers, func(i int) (map[string]float64, error) {
		s, err := at(grid[i])
		if err != nil {
			return nil, err
		}
		rep, err := s.Phase2()
		if err != nil {
			return nil, err
		}
		return rep.Values, nil
	})
	if err != nil {
		return nil, err
	}
	for k, i := range fallback {
		vals[i] = solved[k]
	}
	return vals, nil
}

// session returns a session on a with measures ms under the Runner's
// config, generating folded.
func (r *Runner) session(a *aemilia.ArchiType, ms []measure.Measure) *pipeline.Session {
	return pipeline.NewSession(pipeline.Spec{Arch: a, Measures: ms, Minimize: !r.unfolded}, r.cfg)
}

// rpcSession returns a session on the revised rpc model at p, carrying
// the model's measures.
func (r *Runner) rpcSession(p models.RPCParams) (*pipeline.Session, error) {
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		return nil, err
	}
	return r.session(a, models.RPCMeasures(p)), nil
}

// streamingSession returns a session on the streaming model at p (see
// rpcSession).
func (r *Runner) streamingSession(p models.StreamingParams) (*pipeline.Session, error) {
	a, err := models.BuildStreaming(p)
	if err != nil {
		return nil, err
	}
	return r.session(a, models.StreamingMeasures(p)), nil
}
