package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/fault"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
)

// rpcSpec is the canonical spec of the revised rpc model at the given
// parameters, the same shape internal/experiments builds.
func rpcSpec(p models.RPCParams) pipeline.Spec {
	return pipeline.Spec{
		Key:      fmt.Sprintf("rpc:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) },
		Measures: models.RPCMeasures(p),
	}
}

// TestManagerReusesStagedArtifacts opens two handles on the same spec —
// with different scheduling configs — and checks they share one set of
// staged artifacts: the second Phase2 does no generation and the model,
// LTS and chain are pointer-identical.
func TestManagerReusesStagedArtifacts(t *testing.T) {
	p := models.DefaultRPCParams()
	mgr := pipeline.NewManager()

	s1, err := mgr.Open(rpcSpec(p), pipeline.Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rep1, err := s1.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	calls := lts.GenerateCalls()

	// Different workers/lanes: scheduling only, must intern onto the same
	// session state.
	s2, err := mgr.Open(rpcSpec(p), pipeline.Config{Workers: 8, LaneWidth: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s1.SpecHash() != s2.SpecHash() {
		t.Fatalf("spec hashes differ: %s vs %s", s1.SpecHash(), s2.SpecHash())
	}
	if mgr.Len() != 1 {
		t.Fatalf("manager interned %d states, want 1", mgr.Len())
	}

	m1, err := s1.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	m2, err := s2.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if m1 != m2 {
		t.Fatalf("elaborated models not shared across handles")
	}
	l1, _ := s1.LTS()
	l2, _ := s2.LTS()
	if l1 != l2 {
		t.Fatalf("LTS not shared across handles")
	}
	c1, _ := s1.Chain()
	c2, _ := s2.Chain()
	if c1 != c2 {
		t.Fatalf("chain not shared across handles")
	}

	rep2, err := s2.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	if d := lts.GenerateCalls() - calls; d != 0 {
		t.Fatalf("second handle regenerated the state space (%d extra Generate calls)", d)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("shared-state reports differ:\n%+v\n%+v", rep1, rep2)
	}

	// Reports are private copies: mutating one must not leak into the next.
	for k := range rep2.Values {
		rep2.Values[k] = -1
	}
	rep3, err := s1.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	if reflect.DeepEqual(rep2, rep3) {
		t.Fatalf("Phase2 handed out a shared Values map")
	}
}

// TestStoreHitMatchesFreshSolve runs Phase2 through a MemoryStore twice
// — the second time from a cold session that can only answer from the
// store — and checks the cached report deep-equals the fresh solve and
// that the hit did no generation.
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

// TestSessionSingleFlight has concurrent callers open the same spec key
// on one manager and solve: the build must run exactly once (one
// Generate call) and every caller must see the identical report.
func TestSessionSingleFlight(t *testing.T) {
	p := models.DefaultRPCParams()
	mgr := pipeline.NewManager()
	start := lts.GenerateCalls()

	const n = 8
	reports := make([]*pipeline.Phase2Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := mgr.Open(rpcSpec(p), pipeline.Config{Workers: 1})
			if err != nil {
				errs[i] = err
				return
			}
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
		t.Fatalf("single-flight failed: %d Generate calls for one spec key, want 1", d)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("caller %d saw a different report:\n%+v\n%+v", i, reports[0], reports[i])
		}
	}
}

// TestManagerRejectsEphemeralSpec: an empty Key cannot be interned.
func TestManagerRejectsEphemeralSpec(t *testing.T) {
	spec := rpcSpec(models.DefaultRPCParams())
	spec.Key = ""
	if _, err := pipeline.NewManager().Open(spec, pipeline.Config{}); err == nil {
		t.Fatalf("Open accepted an ephemeral spec (empty Key)")
	}
}

// TestSpecHashIgnoresScheduling checks the content address excludes
// scheduling-only knobs (workers, contexts) and includes everything that
// can change a result's bits.
func TestSpecHashIgnoresScheduling(t *testing.T) {
	p := models.DefaultRPCParams()
	base := rpcSpec(p)

	sched := base
	sched.Gen.Ctx = context.Background()
	sched.Solve.Ctx = context.Background()
	if base.Hash() != sched.Hash() {
		t.Fatalf("contexts changed the spec hash")
	}

	tol := base
	tol.Solve.Tolerance = 1e-6
	if base.Hash() == tol.Hash() {
		t.Fatalf("solver tolerance did not change the spec hash")
	}

	meas := base
	meas.Measures = meas.Measures[:len(meas.Measures)-1]
	if base.Hash() == meas.Hash() {
		t.Fatalf("measure set did not change the spec hash")
	}

	key := base
	key.Key = "rpc:other"
	if base.Hash() == key.Hash() {
		t.Fatalf("spec key did not change the spec hash")
	}

	pred := base
	pred.Gen.Predicates = append([]lts.StatePred(nil), pred.Gen.Predicates...)
	pred.Gen.Predicates = append(pred.Gen.Predicates, lts.StatePred{Instance: "X", Action: "y"})
	if base.Hash() == pred.Hash() {
		t.Fatalf("generation predicates did not change the spec hash")
	}

	budget := base
	budget.Solve.MaxIterations = 1000
	if base.Hash() == budget.Hash() {
		t.Fatalf("solver iteration budget did not change the spec hash")
	}
}

// TestSpecHashGenFields classifies every field of lts.GenerateOptions as
// hashed (it shapes the LTS, so changing it must change the spec hash) or
// scheduling-only (it must not). A field added to GenerateOptions fails
// the test until it is classified, so a no-op knob cannot split the
// content address of identical work.
func TestSpecHashGenFields(t *testing.T) {
	base := rpcSpec(models.DefaultRPCParams())
	set := map[string]func(*lts.GenerateOptions){
		"MaxStates":  func(g *lts.GenerateOptions) { g.MaxStates = 1000 },
		"Predicates": func(g *lts.GenerateOptions) { g.Predicates = []lts.StatePred{{Instance: "X", Action: "y"}} },
		"Ctx":        func(g *lts.GenerateOptions) { g.Ctx = context.Background() },
		"Fold":       func(g *lts.GenerateOptions) { g.Fold = &lts.FoldOptions{} },
	}
	hashed := map[string]bool{"MaxStates": true, "Predicates": true, "Fold": true}
	fields := reflect.TypeOf(lts.GenerateOptions{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		change, ok := set[name]
		if !ok {
			t.Errorf("GenerateOptions.%s is not classified as hashed or scheduling-only", name)
			continue
		}
		spec := base
		change(&spec.Gen)
		if changed := spec.Hash() != base.Hash(); changed != hashed[name] {
			t.Errorf("GenerateOptions.%s: hash changed = %t, want %t", name, changed, hashed[name])
		}
	}
}

// TestPhase1EndToEnd runs the noninterference check on the simplified rpc
// model: it must fail, and the report must carry the state space size.
func TestPhase1EndToEnd(t *testing.T) {
	spec := pipeline.Spec{
		Key:   "rpc-simplified",
		Build: models.BuildRPCSimplified,
	}
	rep, err := pipeline.NewSession(spec, pipeline.Config{}).Phase1(noninterference.Spec{
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
// one session: the model simulated with exponential distributions must
// agree with the exact CTMC solution.
func TestPhase3AndValidation(t *testing.T) {
	p := models.DefaultRPCParams()
	p.ShutdownTimeout = 5
	s := pipeline.NewSession(rpcSpec(p), pipeline.Config{})
	simRep, err := s.Phase3(models.RPCExponentialDistributions(p),
		pipeline.SimSettings{RunLength: 8000, Warmup: 200, Replications: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Events == 0 || simRep.Replications != 10 {
		t.Errorf("phase 3 bookkeeping wrong: %+v", simRep)
	}
	val, err := s.ValidateAgainst(simRep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
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
// the stage latches it — the builder runs once, and a later handle on the
// same interned spec gets the same error without rebuilding.
func TestFailedBuildIsLatched(t *testing.T) {
	boom := errors.New("boom")
	var builds atomic.Int32
	spec := pipeline.Spec{
		Key: "broken",
		Build: func() (*aemilia.ArchiType, error) {
			builds.Add(1)
			return nil, boom
		},
	}
	mgr := pipeline.NewManager()
	for i := 0; i < 2; i++ {
		s, err := mgr.Open(spec, pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Phase2(); !errors.Is(err, boom) {
			t.Fatalf("handle %d: err = %v, want boom", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("failed build ran %d times, want 1", n)
	}
}

// TestCanceledBuildIsNotLatched: a cancellation belongs to the caller,
// not the spec. A handle whose context is already canceled gets a
// *fault.CanceledError, and a second handle on the same interned spec
// with a live context then builds and solves normally.
func TestCanceledBuildIsNotLatched(t *testing.T) {
	p := models.DefaultRPCParams()
	mgr := pipeline.NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	dead, err := mgr.Open(rpcSpec(p), pipeline.Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	_, err = dead.Phase2()
	var ce *fault.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled handle: want *fault.CanceledError, got %T: %v", err, err)
	}

	live, err := mgr.Open(rpcSpec(p), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := live.Phase2()
	if err != nil {
		t.Fatalf("live handle after a canceled one: %v", err)
	}
	want, err := pipeline.NewSession(rpcSpec(p), pipeline.Config{}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report after a canceled build differs from a fresh solve:\n%+v\n%+v", got, want)
	}
}
