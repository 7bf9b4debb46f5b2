package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/compose"
	"repro/internal/ctmc"
	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/fault"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/noninterference"
	"repro/internal/sim"
)

// stage is a single-flight lazily built artifact: the first caller runs
// the builder (outside the lock), concurrent callers wait on it, and the
// result — value or error — is latched for every later caller: a failed
// build is a property of the spec, so retrying it would fail the same way.
// The one exception is cancellation: a canceled build is returned to its own caller but never
// latched, so a timeout cannot poison the session for everyone else —
// the next caller simply becomes the new builder.
type stage[T any] struct {
	mu   sync.Mutex
	done chan struct{} // non-nil while a build is in flight
	set  bool
	val  T
	err  error
}

// get returns the stage's artifact, building it via build if needed.
// phase names the stage in the *fault.CanceledError a waiter returns when
// its own ctx cancels while another caller is still building.
func (s *stage[T]) get(ctx context.Context, phase string, build func() (T, error)) (T, error) {
	for {
		s.mu.Lock()
		if s.set {
			v, err := s.val, s.err
			s.mu.Unlock()
			return v, err
		}
		if s.done == nil {
			done := make(chan struct{})
			s.done = done
			s.mu.Unlock()
			v, err := build()
			s.mu.Lock()
			s.done = nil
			if err == nil || !canceled(err) {
				s.val, s.err, s.set = v, err, true
			}
			s.mu.Unlock()
			close(done)
			return v, err
		}
		done := s.done
		s.mu.Unlock()
		if ctx == nil {
			<-done
			continue
		}
		select {
		case <-done:
		case <-ctx.Done():
			var zero T
			return zero, &fault.CanceledError{Phase: phase, Point: -1, Iteration: -1, Err: ctx.Err()}
		}
	}
}

// canceled reports whether err is a cooperative-cancellation failure —
// the one kind of build failure a stage must not latch.
func canceled(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ce *fault.CanceledError
	return errors.As(err, &ce)
}

// minimized is the staged artifact of compositional minimization: the
// quotient model the Markovian path generates from, plus the per-instance
// reduction statistics for diagnostics.
type minimized struct {
	m  *elab.Model
	st *compose.Stats
}

// anchorResult is a solved sweep anchor: its report and its steady-state
// solution, the warm-start seed of every other point of the sweep.
type anchorResult struct {
	rep *Phase2Report
	pi  []float64
}

// sessionState owns the staged artifacts of one SpecHash. Every Session
// opened on the same hash (through one Manager) shares a single state, so
// the model is elaborated once, the LTS generated once, the chain built
// once (its structural solve plan computed once, via the chain's own
// lazy plan), and each distinct anchor solved once — no matter how many
// handles, goroutines, or experiment drivers are running.
type sessionState struct {
	spec Spec
	hash SpecHash

	model  stage[*elab.Model]
	minim  stage[minimized]
	ltsS   stage[*lts.LTS]
	chain  stage[*ctmc.CTMC]
	phase2 stage[*Phase2Report]

	anchorMu sync.Mutex
	anchors  map[string]*stage[anchorResult] // keyed by encodePoint(anchor point)
}

func newSessionState(spec Spec, hash SpecHash) *sessionState {
	return &sessionState{spec: spec, hash: hash, anchors: make(map[string]*stage[anchorResult])}
}

// anchor returns the single-flight slot for the anchor at the given
// bit-encoded point.
func (st *sessionState) anchor(key string) *stage[anchorResult] {
	st.anchorMu.Lock()
	defer st.anchorMu.Unlock()
	a, ok := st.anchors[key]
	if !ok {
		a = &stage[anchorResult]{}
		st.anchors[key] = a
	}
	return a
}

// Manager interns session states by SpecHash: Open with an equal-hash
// spec returns a handle on the same staged artifacts. One Manager per
// process (or per service) is the intended shape; independent Managers
// share nothing.
type Manager struct {
	mu       sync.Mutex
	sessions map[SpecHash]*sessionState
}

// NewManager returns an empty Manager.
func NewManager() *Manager {
	return &Manager{sessions: make(map[SpecHash]*sessionState)}
}

// Open returns a Session on the state interned under spec's hash,
// creating it on first use. The spec must carry a non-empty Key — the
// canonical model name that makes the hash meaningful across callers;
// anonymous specs belong in NewSession. cfg is private to the returned
// handle: two handles on one state may run with different workers,
// contexts, and stores.
func (mg *Manager) Open(spec Spec, cfg Config) (*Session, error) {
	if spec.Key == "" {
		return nil, errors.New("pipeline: Manager.Open needs a spec with a canonical Key; use NewSession for anonymous specs")
	}
	h := spec.Hash()
	mg.mu.Lock()
	st, ok := mg.sessions[h]
	if !ok {
		st = newSessionState(spec, h)
		mg.sessions[h] = st
	}
	mg.mu.Unlock()
	return &Session{st: st, cfg: cfg}, nil
}

// Len reports the number of interned session states.
func (mg *Manager) Len() int {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return len(mg.sessions)
}

// NewSession returns an ephemeral Session: same staging and single-flight
// semantics, but the state is private to the handle (and to copies of
// it), never interned — the shape for one-shot callers (a CLI command, an
// example) that hold a model or a description nobody else will share.
func NewSession(spec Spec, cfg Config) *Session {
	return &Session{st: newSessionState(spec, spec.Hash()), cfg: cfg}
}

// Session is a handle on one spec's staged pipeline. Handles are cheap;
// the artifacts live in the shared state behind them. Methods are safe
// for concurrent use from any number of goroutines and handles.
type Session struct {
	st  *sessionState
	cfg Config
}

// SpecHash returns the content address of the session's spec.
func (s *Session) SpecHash() SpecHash { return s.st.hash }

// ctx is the session's cancellation context (possibly nil).
func (s *Session) ctx() context.Context { return s.cfg.Ctx }

// genOptions resolves the spec's generation options against the session
// Config (workers and context are scheduling-only fallbacks) and appends
// the measures' state predicates — exactly what the phase-2 entry points
// have always done before generating.
func (s *Session) genOptions() lts.GenerateOptions {
	g := s.st.spec.Gen
	if g.GenWorkers <= 0 {
		g.GenWorkers = s.cfg.Workers
	}
	if g.Ctx == nil {
		g.Ctx = s.cfg.Ctx
	}
	g.Predicates = append(append([]lts.StatePred(nil), g.Predicates...), measure.StatePreds(s.st.spec.Measures)...)
	if s.st.spec.Minimize && g.Fold == nil {
		// The minimizing generation path folds vanishing states eagerly,
		// observing exactly the labels the TRANS_REWARD measures need.
		g.Fold = &lts.FoldOptions{Observed: measure.ObservedMatcher(s.st.spec.Measures)}
	}
	return g
}

// solveOptions resolves the spec's solver options against the session
// Config: context and workers fall back to the Config when unset. Both
// are scheduling-only — results are bit-identical either way.
func (s *Session) solveOptions() ctmc.SolveOptions {
	so := s.st.spec.Solve
	if so.Ctx == nil {
		so.Ctx = s.cfg.Ctx
	}
	if so.Workers <= 0 {
		so.Workers = s.cfg.Workers
	}
	return so
}

// Model returns the session's elaborated model, elaborating the spec's
// architectural description on first use.
func (s *Session) Model() (*elab.Model, error) {
	return s.st.model.get(s.ctx(), "pipeline.elaborate", func() (*elab.Model, error) {
		spec := &s.st.spec
		if spec.Model != nil {
			return spec.Model, nil
		}
		if spec.Build == nil {
			return nil, errors.New("pipeline: spec supplies neither Model nor Build")
		}
		arch, err := spec.Build()
		if err != nil {
			return nil, err
		}
		return elab.Elaborate(arch)
	})
}

// GenModel returns the model the generation path explores: the full
// elaborated model, or its compositional quotient when the spec sets
// Minimize. The quotient is staged like every other artifact (lumped once
// per session state).
func (s *Session) GenModel() (*elab.Model, error) {
	if !s.st.spec.Minimize {
		return s.Model()
	}
	mm, err := s.minimized()
	if err != nil {
		return nil, err
	}
	return mm.m, nil
}

// MinimizeStats returns the per-instance reduction statistics of the
// session's compositional minimization, or nil when the spec does not set
// Minimize.
func (s *Session) MinimizeStats() (*compose.Stats, error) {
	if !s.st.spec.Minimize {
		return nil, nil
	}
	mm, err := s.minimized()
	if err != nil {
		return nil, err
	}
	return mm.st, nil
}

// minimized returns the staged quotient model.
func (s *Session) minimized() (minimized, error) {
	return s.st.minim.get(s.ctx(), "pipeline.minimize", func() (minimized, error) {
		m, err := s.Model()
		if err != nil {
			return minimized{}, err
		}
		g := s.genOptions()
		qm, st, err := compose.Minimize(m, compose.Options{Preds: g.Predicates})
		if err != nil {
			return minimized{}, err
		}
		return minimized{m: qm, st: st}, nil
	})
}

// LTS returns the session's generated state space, generating it on
// first use with the spec's options plus the measures' state predicates.
// With Minimize set, generation runs on the per-component quotient model
// with vanishing-state folding — the compositional-minimization path.
func (s *Session) LTS() (*lts.LTS, error) {
	return s.st.ltsS.get(s.ctx(), "pipeline.generate", func() (*lts.LTS, error) {
		m, err := s.GenModel()
		if err != nil {
			return nil, err
		}
		return lts.Generate(m, s.genOptions())
	})
}

// Chain returns the session's CTMC, built from the LTS on first use. The
// chain is shared by every handle on this state: callers must treat it
// as read-only — solve and transient queries are safe (the solve plan
// and Poisson caches are internally synchronized), but Rebind is not;
// rate sweeps go through Sweep, which rebinds private clones.
func (s *Session) Chain() (*ctmc.CTMC, error) {
	return s.st.chain.get(s.ctx(), "pipeline.build", func() (*ctmc.CTMC, error) {
		l, err := s.LTS()
		if err != nil {
			return nil, err
		}
		return ctmc.Build(l)
	})
}

// Phase1 checks noninterference of the session's (untimed) state space:
// the functional phase of the methodology. The verdict is not memoized —
// spec holds functions and is not hashable — but the expensive artifact,
// the LTS, is staged as usual.
func (s *Session) Phase1(spec noninterference.Spec) (*Phase1Report, error) {
	l, err := s.LTS()
	if err != nil {
		return nil, fmt.Errorf("pipeline: phase 1: %w", err)
	}
	res, err := noninterference.Check(l, spec)
	if err != nil {
		return nil, fmt.Errorf("pipeline: phase 1: %w", err)
	}
	return &Phase1Report{
		Result:      res,
		States:      l.NumStates,
		Transitions: l.NumTransitions(),
	}, nil
}

// Phase2 solves the session's CTMC at the model's built-in rates and
// evaluates the spec's measures exactly: the Markovian phase for one
// model. The report is staged (solved once per state) and, when the
// Config carries a Store, memoized under the spec's hash; callers always
// receive a private copy.
func (s *Session) Phase2() (*Phase2Report, error) {
	key := ResultKey{Spec: s.st.hash, Point: "default"}
	rep, err := s.st.phase2.get(s.ctx(), "pipeline.phase2", func() (*Phase2Report, error) {
		if s.cfg.Store != nil {
			if rep, ok := s.cfg.Store.Get(key); ok {
				return rep, nil
			}
		}
		l, err := s.LTS()
		if err != nil {
			return nil, err
		}
		chain, err := s.Chain()
		if err != nil {
			return nil, err
		}
		pi, trace, err := chain.SteadyStateTraced(s.solveOptions())
		if err != nil {
			return nil, err
		}
		values, err := measure.EvalAll(s.st.spec.Measures, chain, pi)
		if err != nil {
			return nil, err
		}
		rep := &Phase2Report{
			Values:    values,
			States:    l.NumStates,
			Tangible:  chain.N,
			Vanishing: chain.NumVanishing(),
			Trace:     trace,
		}
		if s.cfg.Store != nil {
			s.cfg.Store.Put(key, rep)
		}
		return rep, nil
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: phase 2: %w", err)
	}
	return rep.clone(), nil
}

// Phase3 simulates the session's model with the given duration overrides
// and estimates the spec's measures: the general phase. Workers and Ctx
// fall back to the session Config when the settings leave them unset.
func (s *Session) Phase3(dists map[sim.Activity]dist.Distribution, settings SimSettings) (*Phase3Report, error) {
	m, err := s.Model()
	if err != nil {
		return nil, fmt.Errorf("pipeline: phase 3: %w", err)
	}
	if settings.Workers <= 0 {
		settings.Workers = s.cfg.Workers
	}
	if settings.Ctx == nil {
		settings.Ctx = s.cfg.Ctx
	}
	res, err := sim.Run(sim.Config{
		Model:           m,
		Distributions:   dists,
		Measures:        s.st.spec.Measures,
		RunLength:       settings.RunLength,
		Warmup:          settings.Warmup,
		Replications:    settings.Replications,
		Seed:            settings.Seed,
		ConfidenceLevel: settings.ConfidenceLevel,
		Workers:         settings.Workers,
		Ctx:             settings.Ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: phase 3: %w", err)
	}
	return &Phase3Report{
		Estimates:    res.Estimates,
		Events:       res.Events,
		Replications: res.Replications,
	}, nil
}

// ValidateAgainst cross-validates the session's exact Markovian solution
// against a simulation of the same model (see Validate).
func (s *Session) ValidateAgainst(simulated *Phase3Report, relTolerance float64) (*ValidationReport, error) {
	exact, err := s.Phase2()
	if err != nil {
		return nil, err
	}
	return Validate(exact, simulated, relTolerance), nil
}
