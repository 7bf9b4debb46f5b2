package repro

// One benchmark per table/figure of the paper's evaluation, plus ablation
// benchmarks for the substrate layers DESIGN.md calls out. Each figure
// benchmark runs its experiment at a reduced but representative setting;
// the cmd/ tools run the full sweeps.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/bisim"
	"repro/internal/compose"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/experiments"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// benchRunner builds a fresh experiment runner with a default Config —
// one per op, so every op starts cold and the figure benchmarks keep
// measuring the full pipeline rather than a staged session.
func benchRunner() *experiments.Runner {
	return experiments.NewRunner(pipeline.Config{})
}

// --- Sect. 3: noninterference results ---

func BenchmarkNoninterferenceRPCSimplified(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchRunner().RPCNoninterferenceSimplified()
		if err != nil {
			b.Fatal(err)
		}
		if res.Transparent {
			b.Fatal("expected interference")
		}
	}
}

func BenchmarkNoninterferenceRPCRevised(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchRunner().RPCNoninterferenceRevised()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Transparent {
			b.Fatal("expected transparency")
		}
	}
}

func BenchmarkNoninterferenceStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchRunner().StreamingNoninterference(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Transparent {
			b.Fatal("expected transparency")
		}
	}
}

// --- Fig. 3: rpc performance comparison ---

func BenchmarkFig3Markov(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig3Markov([]float64{0.5, 5, 25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3General(b *testing.B) {
	settings := pipeline.SimSettings{RunLength: 2000, Replications: 4}
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig3General([]float64{2, 10, 20}, settings); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 4: streaming Markovian comparison ---

func BenchmarkFig4Markov(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig4Markov([]float64{50, 400}, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: validation of the general rpc model ---

func BenchmarkFig5Validation(b *testing.B) {
	settings := pipeline.SimSettings{RunLength: 2000, Replications: 5}
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig5Validation([]float64{5}, settings); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6: general streaming model ---

func BenchmarkFig6General(b *testing.B) {
	settings := pipeline.SimSettings{RunLength: 20000, Warmup: 5000, Replications: 3}
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig6General([]float64{100}, experiments.Quick, settings); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7/8: trade-off curves ---

func BenchmarkFig7Tradeoff(b *testing.B) {
	settings := pipeline.SimSettings{RunLength: 2000, Replications: 4}
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig7Tradeoff([]float64{1, 10, 20}, settings); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Tradeoff(b *testing.B) {
	settings := pipeline.SimSettings{RunLength: 20000, Warmup: 5000, Replications: 3}
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig8Tradeoff([]float64{100, 400}, experiments.Quick, settings); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: substrate layers ---

// BenchmarkLTSGeneration measures explicit state-space generation on the
// full-size Markovian streaming model (~50k states).
func BenchmarkLTSGeneration(b *testing.B) {
	p := models.DefaultStreamingParams()
	a, err := models.BuildStreaming(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lts.Generate(m, lts.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures allocation behaviour of explicit state-space
// generation on the full-size Markovian streaming model: the interned
// state-space representation is judged by B/op and allocs/op here
// (results/BENCH_statespace.json is a frozen record of the original CSR
// refactor, not of the current code).
func BenchmarkGenerate(b *testing.B) {
	p := models.DefaultStreamingParams()
	a, err := models.BuildStreaming(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lts.Generate(m, lts.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeakBisim measures the weak-bisimulation check behind the
// streaming noninterference analysis (branching quotients, then
// saturation and signature refinement on them).
func BenchmarkWeakBisim(b *testing.B) {
	p := models.DefaultStreamingParams()
	p.Mode = models.Functional
	p.APCapacity, p.ClientCapacity = 2, 2
	a, err := models.BuildStreaming(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	high := lts.LabelMatcherByNames(models.StreamingHighLabels()...)
	low := lts.LabelMatcherByInstance("C")
	notLow := func(s string) bool { return !low(s) }
	hidden := lts.Hide(l, notLow)
	restricted := lts.Hide(lts.Restrict(l, high), notLow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := bisim.Equivalent(hidden, restricted, bisim.Weak); !ok {
			b.Fatal("expected equivalence")
		}
	}
}

// BenchmarkCTMCSolve measures chain extraction plus steady-state solution
// on the Markovian rpc model.
func BenchmarkCTMCSolve(b *testing.B) {
	p := models.DefaultRPCParams()
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, err := ctmc.Build(l)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chain.SteadyState(ctmc.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEvents measures raw GSMP event throughput on the
// general rpc model; ns/event is the cost of one event of the loop.
func BenchmarkSimulatorEvents(b *testing.B) {
	p := models.DefaultRPCParams()
	p.ShutdownTimeout = 5
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	dists := models.RPCGeneralDistributions(p)
	measures := models.RPCMeasures(p)
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Model:         m,
			Distributions: dists,
			Measures:      measures,
			RunLength:     1000,
			Replications:  1,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkPolicyComparison runs the DPM-policy ablation (trivial vs
// timeout vs predictive vs none) on the Markovian rpc model.
func BenchmarkPolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().PolicyComparison(5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatteryLifetime runs the transient battery-lifetime extension
// (uniformization-based cumulative rewards) across all policies.
func BenchmarkBatteryLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().BatteryLifetime(1000, 5, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartupTransient runs the streaming start-up transient
// extension (incremental uniformization on the Quick-scale chain).
func BenchmarkStartupTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().StreamingStartupTransient(
			[]float64{100, 500, 2000}, 100, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel experiment engine: sequential vs parallel ---
//
// The pairs below run the same sweep at Workers=1 and
// Workers=runtime.NumCPU(); by the engine's determinism contract both
// produce bit-identical results, so the delta is pure wall-clock. On a
// single-core machine the pairs coincide (the pool degenerates to one
// worker); results/BENCH_parallel.json records measured numbers with the
// core count.

func benchFig3General(b *testing.B, workers int) {
	settings := pipeline.SimSettings{RunLength: 2000, Replications: 8, Workers: workers}
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Fig3General([]float64{2, 5, 10, 15, 20, 25}, settings); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3GeneralSequential(b *testing.B) { benchFig3General(b, 1) }
func BenchmarkFig3GeneralParallel(b *testing.B)   { benchFig3General(b, runtime.NumCPU()) }

func benchFig4Markov(b *testing.B, workers int) {
	cfg := pipeline.Config{Workers: workers}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRunner(cfg).Fig4Markov([]float64{50, 100, 200, 400, 800}, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4MarkovSequential(b *testing.B) { benchFig4Markov(b, 1) }
func BenchmarkFig4MarkovParallel(b *testing.B)   { benchFig4Markov(b, runtime.NumCPU()) }

func benchSimReplications(b *testing.B, workers int) {
	p := models.DefaultRPCParams()
	p.ShutdownTimeout = 5
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	dists := models.RPCGeneralDistributions(p)
	measures := models.RPCMeasures(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			Model:         m,
			Distributions: dists,
			Measures:      measures,
			RunLength:     1000,
			Replications:  8,
			Seed:          uint64(i + 1),
			Workers:       workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimReplicationsSequential(b *testing.B) { benchSimReplications(b, 1) }
func BenchmarkSimReplicationsParallel(b *testing.B)   { benchSimReplications(b, runtime.NumCPU()) }

// streamingSteadyChain builds the full-size streaming chain once (its
// recurrent component has 1155 tangible states).
func streamingSteadyChain(b *testing.B) *ctmc.CTMC {
	b.Helper()
	a, err := models.BuildStreaming(models.DefaultStreamingParams())
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := ctmc.Build(l)
	if err != nil {
		b.Fatal(err)
	}
	return chain
}

func benchSteadyState(b *testing.B, opts ctmc.SolveOptions) {
	chain := streamingSteadyChain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.SteadyState(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateGaussSeidel(b *testing.B) {
	benchSteadyState(b, ctmc.SolveOptions{})
}

// --- Rate-parametric sweep: per-point fresh pipeline vs generate-once rebind ---
//
// The Fig. 3 timeout sweep, measured both ways over the same six points:
// Fresh runs the full generate+build+solve pipeline per point (the
// pre-sweep-engine behaviour), Rebind generates and builds once, rewrites
// the rates per point and solves every point cold in four-lane batches
// (pipeline.Session.Sweep). Both iterate the same number of points, so the
// ns/op ratio is the per-point speedup recorded in
// results/BENCH_sweepreuse.json. Elaboration is outside the timer in both
// cases: the delta under test is the phase-2 pipeline, not the AST walk.

var sweepReuseTimeouts = []float64{0.5, 1, 2, 5, 10, 25}

func BenchmarkSweepReuseFresh(b *testing.B) {
	ms := make([]*elab.Model, len(sweepReuseTimeouts))
	for i, T := range sweepReuseTimeouts {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		a, err := models.BuildRPCRevised(p)
		if err != nil {
			b.Fatal(err)
		}
		if ms[i], err = elab.Elaborate(a); err != nil {
			b.Fatal(err)
		}
	}
	measures := models.RPCMeasures(models.DefaultRPCParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			if _, err := pipeline.NewSession(pipeline.Spec{Model: m, Measures: measures}, pipeline.Config{}).Phase2(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Batched multi-lane solve: per-point vs cached-plan vs batched ---
//
// A 16-point rate-parametric sweep solved three ways over the same
// prebuilt chain, every point from the cold uniform start, as
// pipeline.Session.Sweep solves it: PerPoint invalidates the structural plan before
// every solve, re-paying the per-point SCC/reachability analysis exactly
// as the pre-batching engine did; CachedPoint keeps the shared plan but
// still solves one point at a time; Batched hands the points to
// SolveBatch in 8-point chunks, each two four-lane groups, one CSR pass
// feeding all lanes of a group. All three produce bit-identical solutions
// (pinned by the ctmc and pipeline property tests), so the ns/op ratios
// are pure solve-path speedups;
// results/BENCH_batchsolve.json records PerPoint/Batched per model.

const batchSolveLanes = 8

func batchSolveRPCChain(b *testing.B) (*ctmc.CTMC, [][]float64) {
	b.Helper()
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := ctmc.Build(l)
	if err != nil {
		b.Fatal(err)
	}
	timeouts := []float64{0.5, 1, 1.5, 2, 3, 4, 5, 6, 7.5, 9, 10, 12.5, 15, 17.5, 20, 25}
	points := make([][]float64, len(timeouts))
	for i, T := range timeouts {
		points[i] = []float64{1 / T}
	}
	return chain, points
}

func batchSolveStreamingChain(b *testing.B) (*ctmc.CTMC, [][]float64) {
	b.Helper()
	chain := streamingSteadyChainParametric(b)
	periods := []float64{5, 10, 25, 50, 75, 100, 150, 200, 250, 300, 400, 500, 600, 650, 700, 800}
	points := make([][]float64, len(periods))
	for i, P := range periods {
		points[i] = []float64{1 / P}
	}
	return chain, points
}

// streamingSteadyChainParametric builds the full-size streaming chain
// with the PSP wakeup rate left parametric.
func streamingSteadyChainParametric(b *testing.B) *ctmc.CTMC {
	b.Helper()
	p := models.DefaultStreamingParams()
	p.ParametricPeriod = true
	a, err := models.BuildStreaming(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := ctmc.Build(l)
	if err != nil {
		b.Fatal(err)
	}
	return chain
}

func benchBatchSolvePerPoint(b *testing.B, chain *ctmc.CTMC, points [][]float64, invalidate bool) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range points {
			if invalidate {
				chain.InvalidatePlan()
			}
			if err := chain.Rebind(pt); err != nil {
				b.Fatal(err)
			}
			if _, err := chain.SteadyState(ctmc.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchBatchSolveBatched(b *testing.B, chain *ctmc.CTMC, points [][]float64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(points); off += batchSolveLanes {
			end := min(off+batchSolveLanes, len(points))
			if _, err := chain.SolveBatch(points[off:end], ctmc.BatchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchSolveRPCPerPoint(b *testing.B) {
	chain, points := batchSolveRPCChain(b)
	benchBatchSolvePerPoint(b, chain, points, true)
}

func BenchmarkBatchSolveRPCCachedPoint(b *testing.B) {
	chain, points := batchSolveRPCChain(b)
	benchBatchSolvePerPoint(b, chain, points, false)
}

func BenchmarkBatchSolveRPCBatched(b *testing.B) {
	chain, points := batchSolveRPCChain(b)
	benchBatchSolveBatched(b, chain, points)
}

func BenchmarkBatchSolveStreamingPerPoint(b *testing.B) {
	chain, points := batchSolveStreamingChain(b)
	benchBatchSolvePerPoint(b, chain, points, true)
}

func BenchmarkBatchSolveStreamingCachedPoint(b *testing.B) {
	chain, points := batchSolveStreamingChain(b)
	benchBatchSolvePerPoint(b, chain, points, false)
}

func BenchmarkBatchSolveStreamingBatched(b *testing.B) {
	chain, points := batchSolveStreamingChain(b)
	benchBatchSolveBatched(b, chain, points)
}

func BenchmarkSweepReuseRebind(b *testing.B) {
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	measures := models.RPCMeasures(p)
	points := make([][]float64, len(sweepReuseTimeouts))
	for i, T := range sweepReuseTimeouts {
		points[i] = []float64{1 / T}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.NewSession(pipeline.Spec{Model: m, Measures: measures}, pipeline.Config{}).Sweep(points); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Session/handle pipeline: cold vs staged-warm vs store-hit ---
//
// The same Phase2 question asked three ways through the session layer.
// Cold runs a fresh ephemeral session per op: build, elaborate, generate,
// solve — the full pipeline, what a one-shot CLI invocation pays. Warm
// re-opens a handle on an already-staged Manager session per op: the spec
// is re-hashed and interned onto the existing state, so the op costs one
// content hash plus a report clone — what the second experiment touching
// the same model pays. CacheHit starts from a cold session state but a
// populated ResultCache: the op is one content hash plus a store lookup
// and clone — what a re-run with a persistent store would pay. All three
// return deep-equal reports (pinned by the pipeline tests), so the ns/op
// ratios in results/BENCH_pipeline.json are pure reuse savings.

func pipelineRPCSpec() pipeline.Spec {
	p := models.DefaultRPCParams()
	return pipeline.Spec{
		Key:      fmt.Sprintf("rpc:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) },
		Measures: models.RPCMeasures(p),
	}
}

func pipelineStreamingSpec() pipeline.Spec {
	p := models.DefaultStreamingParams()
	return pipeline.Spec{
		Key:      fmt.Sprintf("streaming:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) },
		Measures: models.StreamingMeasures(p),
	}
}

func benchPipelineCold(b *testing.B, spec pipeline.Spec) {
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.NewSession(spec, pipeline.Config{}).Phase2(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPipelineWarm(b *testing.B, spec pipeline.Spec) {
	mgr := pipeline.NewManager()
	s, err := mgr.Open(spec, pipeline.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Phase2(); err != nil { // stage everything outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := mgr.Open(spec, pipeline.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Phase2(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPipelineCacheHit(b *testing.B, spec pipeline.Spec) {
	store := pipeline.NewMemoryStore()
	if _, err := pipeline.NewSession(spec, pipeline.Config{Store: store}).Phase2(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A cold session state per op: only the store can answer.
		if _, err := pipeline.NewSession(spec, pipeline.Config{Store: store}).Phase2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRPCCold(b *testing.B)     { benchPipelineCold(b, pipelineRPCSpec()) }
func BenchmarkPipelineRPCWarm(b *testing.B)     { benchPipelineWarm(b, pipelineRPCSpec()) }
func BenchmarkPipelineRPCCacheHit(b *testing.B) { benchPipelineCacheHit(b, pipelineRPCSpec()) }

func BenchmarkPipelineStreamingCold(b *testing.B) { benchPipelineCold(b, pipelineStreamingSpec()) }
func BenchmarkPipelineStreamingWarm(b *testing.B) { benchPipelineWarm(b, pipelineStreamingSpec()) }
func BenchmarkPipelineStreamingCacheHit(b *testing.B) {
	benchPipelineCacheHit(b, pipelineStreamingSpec())
}

// --- Ablation: compositional minimization (compose quotient + fold) ---

// benchComposeModel elaborates one of the paper models for the Compose
// bench family. scale multiplies the streaming buffer capacities, so
// scale=10 is the 10×-buffer variant whose full product is the stress
// case compositional minimization exists for.
func benchComposeModel(b *testing.B, name string, scale int64) *elab.Model {
	b.Helper()
	var (
		a   *aemilia.ArchiType
		err error
	)
	switch name {
	case "rpc":
		a, err = models.BuildRPCRevised(models.DefaultRPCParams())
	case "streaming":
		p := models.DefaultStreamingParams()
		p.APCapacity *= scale
		p.ClientCapacity *= scale
		a, err = models.BuildStreaming(p)
	default:
		b.Fatalf("unknown compose bench model %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchComposeFull measures the baseline: generating the plain parallel
// product. The composed state/edge counts are reported as metrics so
// bench_compare.sh -C can record the reduction next to the wall-clock
// delta.
func benchComposeFull(b *testing.B, name string, scale int64, maxStates int) {
	m := benchComposeModel(b, name, scale)
	b.ReportAllocs()
	b.ResetTimer()
	var states, edges int
	for i := 0; i < b.N; i++ {
		l, err := lts.Generate(m, lts.GenerateOptions{MaxStates: maxStates})
		if err != nil {
			b.Fatal(err)
		}
		states, edges = l.NumStates, l.NumTransitions()
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(edges), "edges/op")
}

// benchComposeMinimized measures the replacement path end to end: lump
// every component, then generate from the quotient with vanishing-state
// folding — the work an analysis actually does instead of the full
// composition.
func benchComposeMinimized(b *testing.B, name string, scale int64, maxStates int) {
	m := benchComposeModel(b, name, scale)
	b.ReportAllocs()
	b.ResetTimer()
	var states, edges int
	for i := 0; i < b.N; i++ {
		qm, _, err := compose.Minimize(m, compose.Options{})
		if err != nil {
			b.Fatal(err)
		}
		l, err := lts.Generate(qm, lts.GenerateOptions{MaxStates: maxStates, Fold: &lts.FoldOptions{}})
		if err != nil {
			b.Fatal(err)
		}
		states, edges = l.NumStates, l.NumTransitions()
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(edges), "edges/op")
}

func BenchmarkComposeRPCFull(b *testing.B)      { benchComposeFull(b, "rpc", 1, 0) }
func BenchmarkComposeRPCMinimized(b *testing.B) { benchComposeMinimized(b, "rpc", 1, 0) }

func BenchmarkComposeStreamingFull(b *testing.B)      { benchComposeFull(b, "streaming", 1, 0) }
func BenchmarkComposeStreamingMinimized(b *testing.B) { benchComposeMinimized(b, "streaming", 1, 0) }

// The 10×-buffer variant (AP and client buffers at 100 frames) is the
// case where the full product no longer fits the default generation
// budget: its bound must be raised to ~8M states, while the minimized
// path stays comfortably inside the default.
func BenchmarkComposeStreaming10xFull(b *testing.B) {
	skipIfShort(b)
	benchComposeFull(b, "streaming", 10, 8_000_000)
}

func BenchmarkComposeStreaming10xMinimized(b *testing.B) {
	skipIfShort(b)
	benchComposeMinimized(b, "streaming", 10, 8_000_000)
}

// skipIfShort keeps the 10×-buffer pair out of -short smoke runs: one
// full-product generation alone is minutes of work, which is bench_compare
// -C territory, not a compile-and-panic check.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping multi-minute composition bench in -short mode")
	}
}
