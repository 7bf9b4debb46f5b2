package experiments

import (
	"fmt"
	"path/filepath"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// Runner executes the paper's experiments against one injected
// pipeline.Config. All scheduling state — worker counts, lane width,
// cancellation context, checkpoint policy, result store — lives in the
// config; nothing on the experiment hot path reads mutable package
// globals. Every model a Runner touches is staged through a private
// pipeline.Manager, so the rpc and streaming models of one study are
// elaborated once, their state spaces generated once, and their chains
// built once per distinct parameter set, no matter how many figures
// share them (e.g. Fig. 7 rerunning the Fig. 3 sweeps).
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

// Config returns the Runner's (immutable) configuration.
func (r *Runner) Config() pipeline.Config { return r.cfg }

// workersOr resolves an explicit worker count against the config.
func (r *Runner) workersOr(n int) int {
	if n > 0 {
		return n
	}
	return r.cfg.Workers
}

// genOpts is the generation configuration the Runner's sessions carry:
// the config worker count applied to the frontier-expansion pool and the
// config context applied to BFS-level cancellation polls.
func (r *Runner) genOpts() lts.GenerateOptions {
	return lts.GenerateOptions{GenWorkers: r.workersOr(0), Ctx: r.cfg.Ctx}
}

// solveOpts is the steady-state solver configuration the Runner's
// sessions carry: the config's solver options with the worker and
// cancellation defaults applied.
func (r *Runner) solveOpts() ctmc.SolveOptions {
	s := r.cfg.Solve
	if s.Workers <= 0 {
		s.Workers = r.workersOr(0)
	}
	if s.Ctx == nil {
		s.Ctx = r.cfg.Ctx
	}
	return s
}

// checkpointOpts resolves the checkpoint options for the named sweep:
// nil when the config carries no checkpoint directory, otherwise
// <dir>/<name>.ckpt with the config's resume policy. name must be unique
// per (figure, model structure) pair — a resumed checkpoint is rejected
// unless its structural hash matches, so distinct sweeps must not share
// a file.
func (r *Runner) checkpointOpts(name string) *pipeline.CheckpointOptions {
	if r.cfg.CheckpointDir == "" {
		return nil
	}
	return &pipeline.CheckpointOptions{
		Path:   filepath.Join(r.cfg.CheckpointDir, name+".ckpt"),
		Resume: r.cfg.CheckpointResume,
	}
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
