package pipeline_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
)

// rpcSpec is the canonical spec of the revised rpc model at the given
// parameters, the same shape internal/experiments builds. Every parameter
// set the tests pass builds, so a builder error is a broken fixture.
func rpcSpec(p models.RPCParams) pipeline.Spec {
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		panic(err)
	}
	return pipeline.Spec{Arch: a, Measures: models.RPCMeasures(p)}
}

// TestStoreHitMatchesFreshSolve runs Phase2 through a MemoryStore twice
// — the second time from a cold session that can only answer from the
// store — and checks the cached report deep-equals the fresh solve, that
// the hit did no generation, and that neither a session's report nor a
// store entry can be mutated through a report handed out.
func TestStoreHitMatchesFreshSolve(t *testing.T) {
	p := models.DefaultRPCParams()
	store := pipeline.NewMemoryStore()

	fresh := pipeline.NewSession(rpcSpec(p), pipeline.Config{Workers: 1, Store: store})
	rep1, err := fresh.Phase2()
	if err != nil {
		t.Fatalf("fresh Phase2: %v", err)
	}
	if store.Len() == 0 {
		t.Fatalf("Phase2 did not populate the store")
	}

	calls := lts.GenerateCalls()
	cold := pipeline.NewSession(rpcSpec(p), pipeline.Config{Workers: 1, Store: store})
	rep2, err := cold.Phase2()
	if err != nil {
		t.Fatalf("cached Phase2: %v", err)
	}
	if d := lts.GenerateCalls() - calls; d != 0 {
		t.Fatalf("store hit still generated the state space (%d Generate calls)", d)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("cached report differs from fresh solve:\n%+v\n%+v", rep1, rep2)
	}

	// Phase2 hands out a private copy: mutating one must not leak into
	// the session's next report.
	mut, err := fresh.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	for k := range mut.Values {
		mut.Values[k] = -1
	}
	again, err := fresh.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	if !reflect.DeepEqual(rep1, again) {
		t.Fatalf("Phase2 handed out a shared Values map")
	}

	// A hit hands out a private clone: corrupting it must not poison the
	// store for the next caller.
	for k := range rep2.Values {
		rep2.Values[k] = -1
	}
	rep3, err := pipeline.NewSession(rpcSpec(p), pipeline.Config{Workers: 1, Store: store}).Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	if !reflect.DeepEqual(rep1, rep3) {
		t.Fatalf("store entry was mutated through a handed-out report")
	}
}

// TestSessionSingleFlight has concurrent callers solve on one session:
// the build must run exactly once (one Generate call) and every caller
// must see the identical report.
func TestSessionSingleFlight(t *testing.T) {
	s := pipeline.NewSession(rpcSpec(models.DefaultRPCParams()), pipeline.Config{Workers: 1})
	start := lts.GenerateCalls()

	const n = 8
	reports := make([]*pipeline.Phase2Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.Phase2()
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if d := lts.GenerateCalls() - start; d != 1 {
		t.Fatalf("single-flight failed: %d Generate calls for one session, want 1", d)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("caller %d saw a different report:\n%+v\n%+v", i, reports[0], reports[i])
		}
	}
}

// TestStoreKeyIgnoresScheduling checks the store key of a session — the
// Model half of its ResultKeys — excludes scheduling (workers, contexts)
// and the iteration budget, and includes everything else that can change
// a result's bits: the description, the measure set, Minimize and the
// solver tolerance.
func TestStoreKeyIgnoresScheduling(t *testing.T) {
	p := models.DefaultRPCParams()
	key := func(spec pipeline.Spec, cfg pipeline.Config) string {
		t.Helper()
		k, err := pipeline.NewSession(spec, cfg).ResultModel()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := rpcSpec(p)
	want := key(base, pipeline.Config{})

	if key(base, pipeline.Config{Workers: 8}) != want {
		t.Errorf("workers changed the store key")
	}
	sched := base
	sched.Solve.Ctx = context.Background()
	if key(sched, pipeline.Config{Ctx: context.Background()}) != want {
		t.Errorf("contexts changed the store key")
	}
	budget := base
	budget.Solve.MaxIterations = 1000
	if key(budget, pipeline.Config{}) != want {
		t.Errorf("the solver iteration budget changed the store key")
	}

	tol := base
	tol.Solve.Tolerance = 1e-6
	meas := base
	meas.Measures = meas.Measures[:len(meas.Measures)-1]
	minimize := base
	minimize.Minimize = true
	edited := p
	edited.ShutdownTimeout *= 10
	for name, spec := range map[string]pipeline.Spec{
		"solver tolerance": tol,
		"measure set":      meas,
		"Minimize":         minimize,
		"description":      {Arch: rpcSpec(edited).Arch, Measures: base.Measures},
	} {
		if key(spec, pipeline.Config{}) == want {
			t.Errorf("the %s did not change the store key", name)
		}
	}
}

// TestPhase1EndToEnd runs the noninterference check on the simplified rpc
// model: it must fail, and the report must carry the state space size.
func TestPhase1EndToEnd(t *testing.T) {
	a, err := models.BuildRPCSimplified()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pipeline.NewSession(pipeline.Spec{Arch: a}, pipeline.Config{}).Phase1(noninterference.Spec{
		High: lts.LabelMatcherByNames(models.RPCHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Transparent {
		t.Error("simplified rpc should fail phase 1")
	}
	if rep.States == 0 || rep.Transitions == 0 {
		t.Error("phase 1 should report the state space size")
	}
}

// TestPhase2EndToEnd solves the revised rpc model: every measure comes
// back positive and the report accounts for every generated state as
// tangible or vanishing.
func TestPhase2EndToEnd(t *testing.T) {
	rep, err := pipeline.NewSession(rpcSpec(models.DefaultRPCParams()), pipeline.Config{}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"throughput", "waiting_time", "energy"} {
		v, ok := rep.Values[name]
		if !ok {
			t.Fatalf("measure %s missing", name)
		}
		if v <= 0 {
			t.Errorf("measure %s = %v, want positive", name, v)
		}
	}
	if rep.Tangible == 0 || rep.Vanishing == 0 || rep.States != rep.Tangible+rep.Vanishing {
		t.Errorf("state accounting wrong: %d states, %d tangible, %d vanishing",
			rep.States, rep.Tangible, rep.Vanishing)
	}
}

// TestPhase2RejectsFunctionalModel: an untimed model has no CTMC, so the
// Markovian phase must refuse it.
func TestPhase2RejectsFunctionalModel(t *testing.T) {
	p := models.DefaultRPCParams()
	p.Mode = models.Functional
	_, err := pipeline.NewSession(rpcSpec(p), pipeline.Config{}).Phase2()
	if err == nil {
		t.Fatal("an untimed model must be rejected by the Markovian phase")
	}
	if !strings.Contains(err.Error(), "not fully rated") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestPhase3AndValidation runs the paper's Sect. 5.1 cross-validation on
// one session: the Markovian model simulated without duration overrides
// must agree with the exact CTMC solution.
func TestPhase3AndValidation(t *testing.T) {
	p := models.DefaultRPCParams()
	p.ShutdownTimeout = 5
	s := pipeline.NewSession(rpcSpec(p), pipeline.Config{})
	simRep, err := s.Phase3(nil,
		pipeline.SimSettings{RunLength: 8000, Warmup: 200, Replications: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Events == 0 || simRep.Replications != 10 {
		t.Errorf("phase 3 bookkeeping wrong: %+v", simRep)
	}
	exact, err := s.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	val := pipeline.Validate(exact, simRep, 0.05)
	if len(val.PerMeasure) != 3 {
		t.Fatalf("validated %d measures, want 3", len(val.PerMeasure))
	}
	if !val.Consistent {
		for _, mv := range val.PerMeasure {
			t.Logf("%s: exact %v sim %v withinCI %t relErr %v",
				mv.Name, mv.Exact, mv.Estimate, mv.WithinCI, mv.RelError)
		}
		t.Error("exponential simulation should validate against the CTMC")
	}
}

// TestFailedBuildIsLatched: a build error is a property of the spec, so
// the stage latches it — a description that fails to elaborate is
// elaborated once, and every later caller of the session, Phase2's
// included, gets that same error without elaborating again.
func TestFailedBuildIsLatched(t *testing.T) {
	s := pipeline.NewSession(pipeline.Spec{Arch: &aemilia.ArchiType{Name: "Broken"}}, pipeline.Config{})
	_, first := s.Model()
	if first == nil {
		t.Fatal("fixture: an empty description elaborates")
	}
	if _, err := s.Model(); !errors.Is(err, first) {
		t.Errorf("second Model call: err = %v, want the latched %v", err, first)
	}
	if _, err := s.Phase2(); !errors.Is(err, first) || !strings.HasPrefix(err.Error(), "pipeline: phase 2: ") {
		t.Errorf("Phase2: err = %v, want the latched %v", err, first)
	}
}

// TestMinimizeStatsProductBound pins the per-instance local-graph sizes
// that perfbench's compose.full and compose.minimized counters read: the
// rpc and 10×10 streaming products of the paper models, unreduced on both
// sides, and no report for a spec without Minimize.
func TestMinimizeStatsProductBound(t *testing.T) {
	rpc := models.DefaultRPCParams()
	st := models.DefaultStreamingParams()
	for _, c := range []struct {
		name  string
		spec  pipeline.Spec
		sizes pipeline.LocalSizes
		bound float64
	}{
		{"rpc", pipeline.Spec{Model: elaborateRPC(t, rpc), Measures: models.RPCMeasures(rpc), Minimize: true},
			pipeline.LocalSizes{10, 4, 4, 6, 2}, 1920},
		{"streaming", pipeline.Spec{Model: elaborateStreaming(t, st), Measures: models.StreamingMeasures(st), Minimize: true},
			pipeline.LocalSizes{2, 12, 4, 6, 12, 3, 3}, 62208},
	} {
		sizes, err := pipeline.NewSession(c.spec, pipeline.Config{}).MinimizeStats()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(sizes, c.sizes) {
			t.Errorf("%s: sizes %v, want %v", c.name, sizes, c.sizes)
		}
		if full, minimized := sizes.ProductBound(); full != c.bound || minimized != c.bound {
			t.Errorf("%s: product bound %g → %g, want %g → %g", c.name, full, minimized, c.bound, c.bound)
		}
	}
	sizes, err := pipeline.NewSession(pipeline.Spec{Model: elaborateRPC(t, rpc)}, pipeline.Config{}).MinimizeStats()
	if sizes != nil || err != nil {
		t.Errorf("without Minimize: %v, %v; want nil, nil", sizes, err)
	}
}
