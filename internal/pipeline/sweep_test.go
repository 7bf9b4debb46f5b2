package pipeline_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// elaborateRPC elaborates the revised rpc model for the given params.
func elaborateRPC(t *testing.T, p models.RPCParams) *elab.Model {
	t.Helper()
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// elaborateStreaming elaborates the streaming model for the given params.
func elaborateStreaming(t *testing.T, p models.StreamingParams) *elab.Model {
	t.Helper()
	a, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func quickStreamingParams() models.StreamingParams {
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = 3, 3
	return p
}

// sweep runs a sweep of m on a fresh ephemeral session with the given
// solver options and scheduling config.
func sweep(m *elab.Model, measures []measure.Measure, solve ctmc.SolveOptions, cfg pipeline.Config,
	points [][]float64) ([]*pipeline.Phase2Report, error) {
	return pipeline.NewSession(pipeline.Spec{Model: m, Measures: measures, Solve: solve}, cfg).Sweep(points)
}

// sweepRPC is sweep on a session that builds the revised rpc model at p
// (rpcSpec), the shape a result store can key.
func sweepRPC(p models.RPCParams, solve ctmc.SolveOptions, cfg pipeline.Config,
	points [][]float64) ([]*pipeline.Phase2Report, error) {
	spec := rpcSpec(p)
	spec.Solve = solve
	return pipeline.NewSession(spec, cfg).Sweep(points)
}

// phase2 solves m once at its built-in rates on a fresh ephemeral session.
func phase2(t *testing.T, m *elab.Model, measures []measure.Measure) *pipeline.Phase2Report {
	t.Helper()
	rep, err := pipeline.NewSession(pipeline.Spec{Model: m, Measures: measures}, pipeline.Config{}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// privateChain returns a private copy of the chain a session builds for
// m: the session's own chain is shared and must not be rebound.
func privateChain(t *testing.T, m *elab.Model) *ctmc.CTMC {
	t.Helper()
	c, err := pipeline.NewSession(pipeline.Spec{Model: m}, pipeline.Config{}).Chain()
	if err != nil {
		t.Fatal(err)
	}
	return c.Clone()
}

// TestRebindMatchesFreshBuild pins the heart of the rebind contract the
// sweep relies on: a parametric chain rebound to rate 1/T is
// bit-identical — generator entries, exit rates — to a fresh build of the
// non-parametric model at shutdown timeout T. Checked for the rpc
// (timeout) and streaming (awake period) models.
func TestRebindMatchesFreshBuild(t *testing.T) {
	type variant struct {
		name       string
		parametric func(t *testing.T) *ctmc.CTMC
		fresh      func(t *testing.T, knob float64) *ctmc.CTMC
		knobs      []float64
	}
	variants := []variant{
		{
			name: "rpc-timeout",
			parametric: func(t *testing.T) *ctmc.CTMC {
				p := models.DefaultRPCParams()
				p.ParametricTimeout = true
				return privateChain(t, elaborateRPC(t, p))
			},
			fresh: func(t *testing.T, T float64) *ctmc.CTMC {
				p := models.DefaultRPCParams()
				p.ShutdownTimeout = T
				return privateChain(t, elaborateRPC(t, p))
			},
			knobs: []float64{0.5, 5, 25},
		},
		{
			name: "streaming-period",
			parametric: func(t *testing.T) *ctmc.CTMC {
				p := quickStreamingParams()
				p.ParametricPeriod = true
				return privateChain(t, elaborateStreaming(t, p))
			},
			fresh: func(t *testing.T, P float64) *ctmc.CTMC {
				p := quickStreamingParams()
				p.AwakePeriod = P
				return privateChain(t, elaborateStreaming(t, p))
			},
			knobs: []float64{50, 400},
		},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			chain := v.parametric(t)
			if rateSlots(chain) != 1 {
				t.Fatalf("parametric chain has %d rate slots, want 1", rateSlots(chain))
			}
			for _, knob := range v.knobs {
				if err := chain.Rebind([]float64{1 / knob}); err != nil {
					t.Fatalf("rebind to knob %v: %v", knob, err)
				}
				want := v.fresh(t, knob)
				if chain.N != want.N {
					t.Fatalf("knob %v: rebound chain has %d states, fresh build %d", knob, chain.N, want.N)
				}
				for ci := range want.Rows {
					if chain.Exit[ci] != want.Exit[ci] {
						t.Fatalf("knob %v state %d: exit %v != fresh %v", knob, ci, chain.Exit[ci], want.Exit[ci])
					}
					a, b := chain.Rows[ci], want.Rows[ci]
					if len(a) != len(b) {
						t.Fatalf("knob %v state %d: %d entries != fresh %d", knob, ci, len(a), len(b))
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("knob %v state %d entry %d: %+v != fresh %+v", knob, ci, j, a[j], b[j])
						}
					}
				}
			}
		})
	}
}

// TestRebindStructuralErrors pins the error contract: rebinding to a
// value that would change the chain's structure (zero, negative, NaN or
// infinite rate) is rejected with ErrStructuralRebind, a length mismatch
// with a *RebindError, and the chain is untouched either way. A chain
// built without slots rejects any non-empty rebind.
func TestRebindStructuralErrors(t *testing.T) {
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	chain := privateChain(t, elaborateRPC(t, p))
	if err := chain.Rebind([]float64{1.0 / 5}); err != nil {
		t.Fatal(err)
	}
	before := make([]float64, chain.N)
	copy(before, chain.Exit)

	for _, bad := range [][]float64{
		{0}, {-1}, {math.NaN()}, {math.Inf(1)},
	} {
		err := chain.Rebind(bad)
		if err == nil {
			t.Fatalf("rebind to %v should fail", bad)
		}
		if !errors.Is(err, ctmc.ErrStructuralRebind) {
			t.Errorf("rebind to %v: error %v should wrap ErrStructuralRebind", bad, err)
		}
	}
	for _, bad := range [][]float64{nil, {}, {1, 2}} {
		err := chain.Rebind(bad)
		if err == nil {
			t.Fatalf("rebind with %d values should fail", len(bad))
		}
		var re *ctmc.RebindError
		if !errors.As(err, &re) {
			t.Errorf("rebind with %d values: got %T, want *RebindError", len(bad), err)
		}
		if errors.Is(err, ctmc.ErrStructuralRebind) {
			t.Errorf("length mismatch should not claim a structural change: %v", err)
		}
	}
	for ci, e := range chain.Exit {
		if e != before[ci] {
			t.Fatalf("failed rebinds must leave the chain untouched (state %d: %v != %v)", ci, e, before[ci])
		}
	}

	plain := privateChain(t, elaborateRPC(t, models.DefaultRPCParams()))
	if rateSlots(plain) != 0 {
		t.Fatalf("non-parametric chain reports %d slots", rateSlots(plain))
	}
	if err := plain.Rebind([]float64{1}); err == nil {
		t.Fatal("rebinding a slot-free chain should fail")
	}
	if err := plain.Rebind(nil); err != nil {
		t.Fatalf("empty rebind of a slot-free chain is a no-op, got %v", err)
	}
}

// TestPhase2SweepDeterministicAndFresh checks the sweep engine on the rpc
// model: reports are bit-identical at 1 and 8 workers, and every point
// is bit-identical to an independent Phase2 of a fresh build at that
// timeout — the rebound chain equals the fresh build bit for bit
// (TestRebindMatchesFreshBuild), and both are solved cold.
func TestPhase2SweepDeterministicAndFresh(t *testing.T) {
	pp := models.DefaultRPCParams()
	pp.ParametricTimeout = true
	m := elaborateRPC(t, pp)
	measures := models.RPCMeasures(pp)
	timeouts := []float64{0.5, 2, 5, 10, 25}
	points := make([][]float64, len(timeouts))
	for i, T := range timeouts {
		points[i] = []float64{1 / T}
	}

	var byWorkers [][]*pipeline.Phase2Report
	for _, workers := range []int{1, 8} {
		reps, err := sweep(m, measures, ctmc.SolveOptions{}, pipeline.Config{Workers: workers}, points)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		byWorkers = append(byWorkers, reps)
	}
	for i := range points {
		a, b := byWorkers[0][i].Values, byWorkers[1][i].Values
		for name, va := range a {
			if vb := b[name]; va != vb {
				t.Errorf("point %d measure %s: workers=1 %v != workers=8 %v (must be bit-identical)", i, name, va, vb)
			}
		}
	}

	for i, T := range timeouts {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		fresh := phase2(t, elaborateRPC(t, p), models.RPCMeasures(p))
		for name, want := range fresh.Values {
			got := byWorkers[0][i].Values[name]
			if got != want {
				t.Errorf("timeout %v measure %s: sweep %v vs fresh %v", T, name, got, want)
			}
		}
	}
}

// TestPhase2SweepLaneWidths checks the batched sweep engine: on both
// paper models, the reports of grids whose chunks hold two, three and
// four live lanes (the last chunk of the full grid one) are bit-identical
// at one, two and eight workers to those of each point swept alone.
func TestPhase2SweepLaneWidths(t *testing.T) {
	type variant struct {
		name     string
		model    *elab.Model
		measures []measure.Measure
		knobs    []float64
	}
	pp := models.DefaultRPCParams()
	pp.ParametricTimeout = true
	sp := quickStreamingParams()
	sp.ParametricPeriod = true
	variants := []variant{
		{"rpc", elaborateRPC(t, pp), models.RPCMeasures(pp), []float64{0.5, 1, 2, 5, 7.5, 10, 15, 20, 25}},
		{"streaming", elaborateStreaming(t, sp), models.StreamingMeasures(sp), []float64{5, 25, 50, 100, 200, 400, 600, 800}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			points := make([][]float64, len(v.knobs))
			for i, k := range v.knobs {
				points[i] = []float64{1 / k}
			}
			base := make([]*pipeline.Phase2Report, len(points))
			for i, p := range points {
				reps, err := sweep(v.model, v.measures, ctmc.SolveOptions{}, pipeline.Config{}, [][]float64{p})
				if err != nil {
					t.Fatal(err)
				}
				base[i] = reps[0]
			}
			for _, grid := range [][][]float64{points[:2], points[:3], points} {
				for _, workers := range []int{1, 2, 8} {
					reps, err := sweep(v.model, v.measures, ctmc.SolveOptions{}, pipeline.Config{Workers: workers}, grid)
					if err != nil {
						t.Fatalf("%d points, workers=%d: %v", len(grid), workers, err)
					}
					for i := range grid {
						for name, want := range base[i].Values {
							if got := reps[i].Values[name]; got != want {
								t.Errorf("%d points, workers=%d, point %d measure %s: %v != %v (must be bit-identical)",
									len(grid), workers, i, name, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestPhase2SweepConvergenceErrorPoint pins the failure attribution of the
// sweep: a failed solve surfaces a ConvergenceError carrying the global
// sweep-point index and rate vector, and the wrapping message names the
// same point, at one worker and at two, where the second chunk's failure
// may land first.
func TestPhase2SweepConvergenceErrorPoint(t *testing.T) {
	pp := models.DefaultRPCParams()
	pp.ParametricTimeout = true
	m := elaborateRPC(t, pp)
	points := [][]float64{{1. / 5}, {1. / 2}, {1. / 25}, {1. / 10}, {1. / 7}}
	for _, workers := range []int{1, 2} {
		_, err := sweep(m, models.RPCMeasures(pp), ctmc.SolveOptions{MaxIterations: 2},
			pipeline.Config{Workers: workers}, points)
		if !errors.Is(err, ctmc.ErrNoConvergence) {
			t.Fatalf("workers=%d: want ErrNoConvergence, got %v", workers, err)
		}
		var ce *ctmc.ConvergenceError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: want *ConvergenceError, got %v", workers, err)
		}
		if ce.Point != 0 {
			t.Errorf("workers=%d: Point = %d, want 0 (the lowest failed point)", workers, ce.Point)
		}
		if len(ce.Params) != 1 || ce.Params[0] != points[0][0] {
			t.Errorf("workers=%d: Params = %v, want %v", workers, ce.Params, points[0])
		}
		if !strings.Contains(err.Error(), "point 0") {
			t.Errorf("workers=%d: error text %q should name point 0", workers, err)
		}
	}
}

// TestPhase2SweepRejectsBadInput pins the sweep's input contract.
func TestPhase2SweepRejectsBadInput(t *testing.T) {
	none := ctmc.SolveOptions{}
	plain := elaborateRPC(t, models.DefaultRPCParams())
	if _, err := sweep(plain, nil, none, pipeline.Config{}, [][]float64{{1}}); err == nil {
		t.Error("sweeping a slot-free model should fail")
	}

	pp := models.DefaultRPCParams()
	pp.ParametricTimeout = true
	m := elaborateRPC(t, pp)
	if _, err := sweep(m, nil, none, pipeline.Config{}, [][]float64{{1, 2}}); err == nil {
		t.Error("a point with the wrong arity should fail")
	}
	reps, err := sweep(m, nil, none, pipeline.Config{}, nil)
	if err != nil || reps != nil {
		t.Errorf("empty sweep: got (%v, %v), want (nil, nil)", reps, err)
	}
	if _, err := sweep(m, []measure.Measure{}, none, pipeline.Config{}, [][]float64{{0}}); err == nil {
		t.Error("a structure-changing point should fail")
	}
}

// coldSolve is the per-point oracle of the sweep contract: a private
// clone of the session's chain, rebound to the point, solved cold by the
// one-lane SteadyStateTraced path, and evaluated.
func coldSolve(t *testing.T, s *pipeline.Session, measures []measure.Measure, point []float64) map[string]float64 {
	t.Helper()
	shared, err := s.Chain()
	if err != nil {
		t.Fatal(err)
	}
	c := shared.Clone()
	if err := c.Rebind(point); err != nil {
		t.Fatal(err)
	}
	pi, _, err := c.SteadyStateTraced(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := measure.Compile(measures, c)
	if err != nil {
		t.Fatal(err)
	}
	return cm.Eval(c, pi)
}

// TestSweepMatchesColdSolve pins the sweep's contract: every report of a
// Fig. 3 (rpc timeouts) and a Fig. 4 (streaming awake periods) sweep is
// bit-identical to a cold one-lane solve at that point's rates, whichever
// point comes first and however many workers the points are spread
// over.
func TestSweepMatchesColdSolve(t *testing.T) {
	rp := models.DefaultRPCParams()
	rp.ParametricTimeout = true
	sp := quickStreamingParams()
	sp.ParametricPeriod = true
	variants := []struct {
		name     string
		model    *elab.Model
		measures []measure.Measure
		knobs    []float64
	}{
		{"fig3", elaborateRPC(t, rp), models.RPCMeasures(rp), []float64{0.5, 1, 2, 3, 5, 7.5, 10, 12.5, 15, 20, 25}},
		{"fig4", elaborateStreaming(t, sp), models.StreamingMeasures(sp), []float64{5, 10, 25, 50, 100, 200, 300, 400, 600, 800}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			points := make([][]float64, len(v.knobs))
			for i, k := range v.knobs {
				points[i] = []float64{1 / k}
			}
			spec := pipeline.Spec{Model: v.model, Measures: v.measures}
			oracle := pipeline.NewSession(spec, pipeline.Config{})
			want := make([]map[string]float64, len(points))
			for i, p := range points {
				want[i] = coldSolve(t, oracle, v.measures, p)
			}
			for _, workers := range []int{1, 2, 8} {
				reps, err := pipeline.NewSession(spec, pipeline.Config{Workers: workers}).Sweep(points)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i, rep := range reps {
					if len(rep.Values) != len(want[i]) {
						t.Fatalf("workers=%d point %d: %d values, want %d",
							workers, i, len(rep.Values), len(want[i]))
					}
					for name, w := range want[i] {
						if g, ok := rep.Values[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
							t.Errorf("workers=%d point %d measure %s: sweep %v, cold solve %v (must be bit-identical)",
								workers, i, name, g, w)
						}
					}
				}
			}
		})
	}
}

// TestSweepFullMatchesMinimized pins that the full and the
// folded 10×10 streaming chains, which differ only in how their
// tangible states are numbered, are swept in one order: their recurrent
// components are visited in ascending tangible index, so every measure of
// the two sweeps agrees to 1e-12 relative, from a 5 ms to a 1e5 ms awake
// period.
func TestSweepFullMatchesMinimized(t *testing.T) {
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = 10, 10
	p.ParametricPeriod = true
	m, measures := elaborateStreaming(t, p), models.StreamingMeasures(p)
	periods := []float64{5, 100, 800, 1e5}
	points := make([][]float64, len(periods))
	for i, P := range periods {
		points[i] = []float64{1 / P}
	}
	var reps [2][]*pipeline.Phase2Report
	for i, minimize := range []bool{false, true} {
		r, err := pipeline.NewSession(pipeline.Spec{Model: m, Measures: measures, Minimize: minimize}, pipeline.Config{}).Sweep(points)
		if err != nil {
			t.Fatalf("minimize=%v: %v", minimize, err)
		}
		reps[i] = r
	}
	for i, P := range periods {
		full, folded := reps[0][i].Values, reps[1][i].Values
		if len(full) != len(folded) {
			t.Fatalf("%g ms: %d measures full, %d minimized", P, len(full), len(folded))
		}
		for name, f := range full {
			g, ok := folded[name]
			if !ok || math.Abs(f-g) > 1e-12*math.Max(math.Abs(f), math.Abs(g)) {
				t.Errorf("%g ms measure %s: full %v, minimized %v", P, name, f, g)
			}
		}
	}
}

// countingStore is a MemoryStore that counts its hits.
type countingStore struct {
	*pipeline.MemoryStore
	hits int
}

func (s *countingStore) Get(key pipeline.ResultKey) (*pipeline.Phase2Report, bool) {
	rep, ok := s.MemoryStore.Get(key)
	if ok {
		s.hits++
	}
	return rep, ok
}

// TestSweepStoreSharesPointsAcrossGrids checks that a point's stored
// report is found by any grid holding that point: two timeout grids that
// share one point but start from different first points hit the store
// exactly once, on the shared point, and the hit equals the fresh solve
// bit for bit.
func TestSweepStoreSharesPointsAcrossGrids(t *testing.T) {
	pp := models.DefaultRPCParams()
	pp.ParametricTimeout = true
	store := &countingStore{MemoryStore: pipeline.NewMemoryStore()}
	first := [][]float64{{1. / 2}, {1. / 5}, {1. / 10}}
	second := [][]float64{{1. / 25}, {1. / 5}, {1. / 15}}

	a, err := sweepRPC(pp, ctmc.SolveOptions{}, pipeline.Config{Store: store}, first)
	if err != nil {
		t.Fatal(err)
	}
	if store.hits != 0 || store.Len() != len(first) {
		t.Fatalf("first grid: %d hits and %d entries, want 0 and %d", store.hits, store.Len(), len(first))
	}
	b, err := sweepRPC(pp, ctmc.SolveOptions{}, pipeline.Config{Store: store}, second)
	if err != nil {
		t.Fatal(err)
	}
	if store.hits != 1 {
		t.Fatalf("second grid: %d store hits, want 1 (the shared point)", store.hits)
	}
	if store.Len() != len(first)+len(second)-1 {
		t.Errorf("store holds %d reports, want %d", store.Len(), len(first)+len(second)-1)
	}
	requireSameReports(t, "shared point", a[1:2], b[1:2])
	fresh, err := sweepRPC(pp, ctmc.SolveOptions{}, pipeline.Config{}, second)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReports(t, "second grid vs store-free", fresh, b)
}

// rateSlots returns the number of rate slots chain accepts: the count an
// empty Rebind, which fails its length check and leaves the chain
// untouched, reports as wanted.
func rateSlots(chain *ctmc.CTMC) int {
	var rb *ctmc.RebindError
	if errors.As(chain.Rebind(nil), &rb) {
		return rb.Want
	}
	return 0
}
