package experiments

import (
	"fmt"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// Runner executes the paper's experiments against one injected
// pipeline.Config. All scheduling state — worker count, cancellation
// context, result store — lives in the config; nothing on the experiment
// hot path reads mutable package globals. Every model a Runner touches is staged through a private
// pipeline.Manager, so the rpc and streaming models of one study are
// elaborated once, their state spaces generated once, and their chains
// built once per distinct parameter set, no matter how many figures
// share them (e.g. Fig. 5's analytic sweep reusing the parametric rpc
// chain of Fig. 3).
//
// A Runner is safe for concurrent use: sessions single-flight their
// stages and the config is never mutated after construction.
type Runner struct {
	cfg pipeline.Config
	mgr *pipeline.Manager
}

// NewRunner returns a Runner over cfg. A non-positive cfg.Workers is
// normalized to 1 (sequential); every other field is used as given.
func NewRunner(cfg pipeline.Config) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &Runner{cfg: cfg, mgr: pipeline.NewManager()}
}

// genOpts is the generation configuration the Runner's sessions carry:
// the config context applied to BFS-level cancellation polls.
func (r *Runner) genOpts() lts.GenerateOptions {
	return lts.GenerateOptions{Ctx: r.cfg.Ctx}
}

// solveOpts is the steady-state solver configuration the Runner's
// sessions carry: the default solver under the config context.
func (r *Runner) solveOpts() ctmc.SolveOptions {
	return ctmc.SolveOptions{Ctx: r.cfg.Ctx}
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

// open interns a session for spec under the Runner's manager and config.
func (r *Runner) open(spec pipeline.Spec) (*pipeline.Session, error) {
	return r.mgr.Open(spec, r.cfg)
}

// rpcSession returns the staged session for the revised rpc model at p,
// carrying the model's measures and the Runner's generation and solver
// options. Sessions are content-addressed, so every figure that touches
// the same parameter set shares one elaborated model, state space, and
// chain.
func (r *Runner) rpcSession(p models.RPCParams) (*pipeline.Session, error) {
	return r.open(pipeline.Spec{
		Key:      fmt.Sprintf("rpc:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) },
		Measures: models.RPCMeasures(p),
		Gen:      r.genOpts(),
		Solve:    r.solveOpts(),
		Minimize: r.cfg.Minimize,
	})
}

// streamingSession returns the staged session for the streaming model at
// p (see rpcSession).
func (r *Runner) streamingSession(p models.StreamingParams) (*pipeline.Session, error) {
	return r.open(pipeline.Spec{
		Key:      fmt.Sprintf("streaming:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) },
		Measures: models.StreamingMeasures(p),
		Gen:      r.genOpts(),
		Solve:    r.solveOpts(),
		Minimize: r.cfg.Minimize,
	})
}
