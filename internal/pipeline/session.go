package pipeline

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/noninterference"
	"repro/internal/sim"
	"repro/internal/statespace"
)

// errNoArch fails a spec that supplies neither a description nor a model.
var errNoArch = errors.New("pipeline: spec supplies neither Model nor Arch")

// Session is the staged pipeline of one Spec: the elaborated model, the
// generated LTS, the built CTMC (with its cached structural solve plan),
// the compiled measures and the Phase2 report. Each stage is a
// sync.OnceValues, built on first use: concurrent callers wait for the
// one build, and its outcome — value, error or panic — is final for the
// session. A cancellation via Config.Ctx is final too; the work is
// resumed on a new session, which a result store answers for whatever
// the canceled one finished. Methods are safe for concurrent use from
// any number of goroutines.
type Session struct {
	spec Spec
	cfg  Config

	model    func() (*elab.Model, error)
	lts      func() (*lts.LTS, error)
	chain    func() (*ctmc.CTMC, error)
	measures func() (*measure.Compiled, error)
	phase2   func() (*Phase2Report, error)
}

// NewSession returns the session of spec under cfg. Nothing is built
// until a method asks for it.
func NewSession(spec Spec, cfg Config) *Session {
	s := &Session{spec: spec, cfg: cfg}
	s.model = sync.OnceValues(s.elaborate)
	s.lts = sync.OnceValues(s.generate)
	s.chain = sync.OnceValues(s.build)
	s.measures = sync.OnceValues(s.compile)
	s.phase2 = sync.OnceValues(s.solve)
	return s
}

// genOptions are the options the session generates with: the Config's
// context, the measures' state predicates, and with Minimize set
// vanishing-state folding that observes exactly the labels the
// TRANS_REWARD measures need.
func (s *Session) genOptions() lts.GenerateOptions {
	g := lts.GenerateOptions{Ctx: s.cfg.Ctx, Predicates: measure.StatePreds(s.spec.Measures)}
	if s.spec.Minimize {
		g.Fold = &lts.FoldOptions{Observed: measure.ObservedMatcher(s.spec.Measures)}
	}
	return g
}

// solveOptions are the spec's solver options under the Config's context.
func (s *Session) solveOptions() ctmc.SolveOptions {
	so := s.spec.Solve
	so.Ctx = s.cfg.Ctx
	return so
}

// Model returns the session's elaborated model, elaborating the spec's
// architectural description on first use.
func (s *Session) Model() (*elab.Model, error) { return s.model() }

func (s *Session) elaborate() (*elab.Model, error) {
	switch {
	case s.spec.Model != nil:
		return s.spec.Model, nil
	case s.spec.Arch == nil:
		return nil, errNoArch
	}
	return elab.Elaborate(s.spec.Arch)
}

// resultModel returns the Model half of the session's store keys. It
// needs the spec's description — a pre-elaborated Spec.Model cannot be
// formatted into a key — but nothing later: a store hit skips
// elaboration, generation and the solve.
func (s *Session) resultModel() (string, error) {
	if s.spec.Model != nil {
		return "", errors.New("pipeline: a result store needs a spec that supplies its description, not a pre-elaborated Model")
	}
	if s.spec.Arch == nil {
		return "", errNoArch
	}
	return s.spec.storeHash(aemilia.Format(s.spec.Arch)), nil
}

// GenModel returns the model the generation path explores: the
// elaborated model, folded or not. It stays only because perfbench calls
// it, and goes with ROADMAP item 1(c).
func (s *Session) GenModel() (*elab.Model, error) { return s.Model() }

// maxLocalConfigs bounds one instance's local configuration graph in
// MinimizeStats: an instance whose data parameter only the composition
// bounds has an unbounded local graph.
const maxLocalConfigs = 1_000_000

// LocalSizes holds the size of each instance's reachable local
// configuration graph, in declaration order. It stays only because
// perfbench reads its ProductBound, and goes with ROADMAP item 1(c).
type LocalSizes []int

// ProductBound returns the product of the per-instance sizes, the
// worst-case composed space, twice: folding is the only reduction, and it
// shrinks the composed space, never an instance's.
func (ls LocalSizes) ProductBound() (full, minimized float64) {
	full = 1
	for _, n := range ls {
		full *= float64(n)
	}
	return full, full
}

// MinimizeStats enumerates the local configuration graph of every
// instance of the session's model, following every local move, and
// returns the sizes; nil when the spec does not set Minimize. It stays
// only because perfbench calls it, and goes with ROADMAP item 1(c).
func (s *Session) MinimizeStats() (LocalSizes, error) {
	if !s.spec.Minimize {
		return nil, nil
	}
	m, err := s.Model()
	if err != nil {
		return nil, err
	}
	sizes := make(LocalSizes, m.NumInstances())
	var key []byte
	for i := range sizes {
		in := statespace.NewInterner()
		configs := []elab.LocalConfig{m.InitialLocal(i)}
		key = m.AppendLocalKey(key[:0], configs[0])
		in.Intern(key)
		for q := 0; q < len(configs); q++ {
			moves, err := m.LocalMovesOf(i, configs[q])
			if err != nil {
				return nil, err
			}
			for _, mv := range moves {
				key = m.AppendLocalKey(key[:0], mv.Next)
				if _, fresh := in.Intern(key); fresh {
					if len(configs) == maxLocalConfigs {
						return nil, fmt.Errorf("pipeline: instance %s: local configuration graph exceeds %d configurations",
							m.InstanceName(i), maxLocalConfigs)
					}
					configs = append(configs, mv.Next)
				}
			}
		}
		sizes[i] = len(configs)
	}
	return sizes, nil
}

// LTS returns the session's generated state space, generating it on
// first use (see genOptions). With Minimize set, generation folds
// vanishing states.
func (s *Session) LTS() (*lts.LTS, error) { return s.lts() }

func (s *Session) generate() (*lts.LTS, error) {
	m, err := s.Model()
	if err != nil {
		return nil, err
	}
	return lts.Generate(m, s.genOptions())
}

// Chain returns the session's CTMC, built from the LTS on first use. The
// chain is shared by every caller of the session, so callers must treat
// it as read-only — solve and transient queries are safe (the solve plan
// and Poisson caches are internally synchronized), but Rebind is not;
// rate sweeps go through Sweep, which rebinds private clones.
func (s *Session) Chain() (*ctmc.CTMC, error) { return s.chain() }

func (s *Session) build() (*ctmc.CTMC, error) {
	l, err := s.LTS()
	if err != nil {
		return nil, err
	}
	return ctmc.Build(l)
}

// compile compiles the spec's measures against the session's chain. The
// compiled set holds no rates, so Phase 2 and every sweep worker's
// rebound clone evaluate through this one set.
func (s *Session) compile() (*measure.Compiled, error) {
	chain, err := s.Chain()
	if err != nil {
		return nil, err
	}
	return measure.Compile(s.spec.Measures, chain)
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
// model. The report is staged (solved once per session) and, when the
// Config carries a Store, memoized there (see resultModel); callers always
// receive a private copy.
func (s *Session) Phase2() (*Phase2Report, error) {
	rep, err := s.phase2()
	if err != nil {
		return nil, fmt.Errorf("pipeline: phase 2: %w", err)
	}
	return rep.clone(), nil
}

func (s *Session) solve() (*Phase2Report, error) {
	key := ResultKey{Point: "default"}
	if s.cfg.Store != nil {
		var err error
		if key.Model, err = s.resultModel(); err != nil {
			return nil, err
		}
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
	measures, err := s.measures()
	if err != nil {
		return nil, err
	}
	rep := &Phase2Report{
		Values:    measures.Eval(chain, pi),
		States:    l.NumStates,
		Tangible:  chain.N,
		Vanishing: chain.NumVanishing(),
		Trace:     trace,
	}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(key, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Phase3 simulates the session's model with the given duration overrides
// and estimates the spec's measures: the general phase. With nil
// overrides every activity draws from the exponential its rate declares,
// which simulates the Markovian model itself (the validation of paper
// Sect. 5.1). Replications run on the session Config's Workers and stop
// on its Ctx.
func (s *Session) Phase3(dists map[sim.Activity]dist.Distribution, settings SimSettings) (*Phase3Report, error) {
	m, err := s.Model()
	if err != nil {
		return nil, fmt.Errorf("pipeline: phase 3: %w", err)
	}
	res, err := sim.Run(sim.Config{
		Model:           m,
		Distributions:   dists,
		Measures:        s.spec.Measures,
		RunLength:       settings.RunLength,
		Warmup:          settings.Warmup,
		Replications:    settings.Replications,
		Seed:            settings.Seed,
		ConfidenceLevel: settings.ConfidenceLevel,
		Workers:         s.cfg.Workers,
		Ctx:             s.cfg.Ctx,
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
