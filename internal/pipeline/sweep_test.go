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

// sweep runs a (possibly checkpointed) sweep of m on a fresh ephemeral
// session with the given solver options and scheduling config.
func sweep(m *elab.Model, measures []measure.Measure, solve ctmc.SolveOptions, cfg pipeline.Config,
	points [][]float64, ck *pipeline.CheckpointOptions) ([]*pipeline.Phase2Report, error) {
	s := pipeline.NewSession(pipeline.Spec{Model: m, Measures: measures, Solve: solve}, cfg)
	return s.SweepCheckpointed(points, ck)
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
			if chain.NumRateSlots() != 1 {
				t.Fatalf("parametric chain has %d rate slots, want 1", chain.NumRateSlots())
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
	if plain.NumRateSlots() != 0 {
		t.Fatalf("non-parametric chain reports %d slots", plain.NumRateSlots())
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
// matches an independent per-point Phase2 within solver tolerance (the
// sweep warm-starts from the anchor, so the iteration trajectory — not
// the fixed point — differs).
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
		reps, err := sweep(m, measures, ctmc.SolveOptions{}, pipeline.Config{Workers: workers}, points, nil)
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
			rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-12)
			if rel > 1e-6 {
				t.Errorf("timeout %v measure %s: sweep %v vs fresh %v (rel %g)", T, name, got, want, rel)
			}
		}
	}
}

// TestPhase2SweepLaneWidths checks the batched sweep engine: reports are
// bit-identical at every lane width (per-point path included) crossed with
// every worker count, on both paper models.
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
			base, err := sweep(v.model, v.measures, ctmc.SolveOptions{}, pipeline.Config{LaneWidth: 1, Workers: 1}, points, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, laneWidth := range []int{0, 3, 8} {
				for _, workers := range []int{1, 8} {
					cfg := pipeline.Config{LaneWidth: laneWidth, Workers: workers}
					reps, err := sweep(v.model, v.measures, ctmc.SolveOptions{}, cfg, points, nil)
					if err != nil {
						t.Fatalf("lanes=%d workers=%d: %v", laneWidth, workers, err)
					}
					for i := range points {
						for name, want := range base[i].Values {
							if got := reps[i].Values[name]; got != want {
								t.Errorf("lanes=%d workers=%d point %d measure %s: %v != %v (must be bit-identical)",
									laneWidth, workers, i, name, got, want)
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
// same point, on both the per-point and the batched path.
func TestPhase2SweepConvergenceErrorPoint(t *testing.T) {
	pp := models.DefaultRPCParams()
	pp.ParametricTimeout = true
	m := elaborateRPC(t, pp)
	points := [][]float64{{1. / 5}, {1. / 2}, {1. / 25}}
	for _, laneWidth := range []int{1, 8} {
		_, err := sweep(m, models.RPCMeasures(pp), ctmc.SolveOptions{MaxIterations: 2},
			pipeline.Config{LaneWidth: laneWidth}, points, nil)
		if !errors.Is(err, ctmc.ErrNoConvergence) {
			t.Fatalf("lanes=%d: want ErrNoConvergence, got %v", laneWidth, err)
		}
		var ce *ctmc.ConvergenceError
		if !errors.As(err, &ce) {
			t.Fatalf("lanes=%d: want *ConvergenceError, got %v", laneWidth, err)
		}
		if ce.Point != 0 {
			t.Errorf("lanes=%d: Point = %d, want 0 (the anchor fails first)", laneWidth, ce.Point)
		}
		if len(ce.Params) != 1 || ce.Params[0] != points[0][0] {
			t.Errorf("lanes=%d: Params = %v, want %v", laneWidth, ce.Params, points[0])
		}
		if !strings.Contains(err.Error(), "point 0") {
			t.Errorf("lanes=%d: error text %q should name point 0", laneWidth, err)
		}
	}
}

// TestPhase2SweepRejectsBadInput pins the sweep's input contract.
func TestPhase2SweepRejectsBadInput(t *testing.T) {
	none := ctmc.SolveOptions{}
	plain := elaborateRPC(t, models.DefaultRPCParams())
	if _, err := sweep(plain, nil, none, pipeline.Config{}, [][]float64{{1}}, nil); err == nil {
		t.Error("sweeping a slot-free model should fail")
	}

	pp := models.DefaultRPCParams()
	pp.ParametricTimeout = true
	m := elaborateRPC(t, pp)
	if _, err := sweep(m, nil, none, pipeline.Config{}, [][]float64{{1, 2}}, nil); err == nil {
		t.Error("a point with the wrong arity should fail")
	}
	if _, err := sweep(m, nil, ctmc.SolveOptions{WarmStart: []float64{1}}, pipeline.Config{}, [][]float64{{1}}, nil); err == nil {
		t.Error("a caller-supplied WarmStart should be rejected")
	}
	reps, err := sweep(m, nil, none, pipeline.Config{}, nil, nil)
	if err != nil || reps != nil {
		t.Errorf("empty sweep: got (%v, %v), want (nil, nil)", reps, err)
	}
	if _, err := sweep(m, []measure.Measure{}, none, pipeline.Config{}, [][]float64{{0}}, nil); err == nil {
		t.Error("a structure-changing point should fail")
	}
}
