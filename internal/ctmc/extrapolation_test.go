package ctmc_test

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// solveCounterChain builds the chain of one solve_counters.json point
// (internal/pipeline's TestSolveCounters): the named session's state
// space with its one rate slot bound to 1/knob.
func solveCounterChain(t *testing.T, name string, knob float64) *ctmc.CTMC {
	t.Helper()
	var m *elab.Model
	var ms []measure.Measure
	var minimize bool
	elaborate := func(m *elab.Model, err error) *elab.Model {
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	streaming := func(capacity int64) {
		p := models.DefaultStreamingParams()
		p.ParametricPeriod = true
		p.APCapacity, p.ClientCapacity = capacity, capacity
		a, err := models.BuildStreaming(p)
		if err != nil {
			t.Fatal(err)
		}
		m, ms = elaborate(elab.Elaborate(a)), models.StreamingMeasures(p)
	}
	switch name {
	case "rpc-full", "rpc-minimized":
		p := models.DefaultRPCParams()
		p.ParametricTimeout = true
		a, err := models.BuildRPCRevised(p)
		if err != nil {
			t.Fatal(err)
		}
		m, ms, minimize = elaborate(elab.Elaborate(a)), models.RPCMeasures(p), name == "rpc-minimized"
	case "streaming-10x10-full", "streaming-10x10-minimized":
		streaming(10)
		minimize = name == "streaming-10x10-minimized"
	case "streaming-12x12-minimized":
		streaming(12)
		minimize = true
	default:
		t.Fatalf("unknown chain %q", name)
	}
	l, err := pipeline.NewSession(pipeline.Spec{Model: m, Measures: ms, Minimize: minimize}, pipeline.Config{}).LTS()
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctmc.Build(lts.BindSlotsForTest(l, []float64{1 / knob}))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestExtrapolationNeverCostsSweeps holds the solver's extrapolation to
// its purpose: at every point of internal/pipeline's solve_counters.json
// — rpc from 1e-4 ms to 1e5 ms and 10×10 and 12×12 streaming from 1 ms to
// 1e5 ms — the solver takes at most 1.1× the sweeps of plain
// Gauss-Seidel. A skipped or unhelpful step costs nothing, but a step
// that lands badly costs the sweeps needed to recover from it.
func TestExtrapolationNeverCostsSweeps(t *testing.T) {
	b, err := os.ReadFile("../pipeline/testdata/solve_counters.json")
	if err != nil {
		t.Fatal(err)
	}
	var points []struct {
		Chain string  `json:"chain"`
		Knob  float64 `json:"knob_ms"`
	}
	if err := json.Unmarshal(b, &points); err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("solve_counters.json lists no point")
	}
	for _, p := range points {
		c := solveCounterChain(t, p.Chain, p.Knob)
		_, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{})
		if err != nil {
			t.Fatalf("%s at %v ms: %v", p.Chain, p.Knob, err)
		}
		got, plain := trace.Attempts[0].Iterations, ctmc.PlainSweepsForTest(c)
		t.Logf("%s at %v ms: %d sweeps, plain Gauss-Seidel %d", p.Chain, p.Knob, got, plain)
		if plain == 0 || float64(got) > 1.1*float64(plain) {
			t.Errorf("%s at %v ms: %d sweeps, plain Gauss-Seidel %d", p.Chain, p.Knob, got, plain)
		}
	}
}

// TestExtrapolatedSolveMatchesGTH pins the accuracy of the extrapolated
// solve where extrapolation does the most work: on the minimized 10×10
// and 12×12 streaming chains at awake periods from 1 ms to 1e5 ms, every
// state's probability is within 1e-10 relative of the exact GTH solve.
func TestExtrapolatedSolveMatchesGTH(t *testing.T) {
	for _, capacity := range []int64{10, 12} {
		c, err := ctmc.Build(minimizedStreamingLTS(t, capacity))
		if err != nil {
			t.Fatal(err)
		}
		for _, P := range []float64{1, 5, 50, 800, 2000, 1e4, 1e5} {
			bound := boundChain(t, c, []float64{1 / P})
			pi, _, err := bound.SteadyStateTraced(ctmc.SolveOptions{})
			if err != nil {
				t.Fatalf("%d×%d at %v ms: %v", capacity, capacity, P, err)
			}
			want := ctmc.GTHSteadyStateForTest(t, bound)
			worst := 0.0
			for s := range want {
				if want[s] == 0 {
					if pi[s] != 0 {
						t.Fatalf("%d×%d at %v ms: state %d: %v, GTH 0", capacity, capacity, P, s, pi[s])
					}
					continue
				}
				worst = math.Max(worst, math.Abs(pi[s]-want[s])/want[s])
			}
			t.Logf("%d×%d at %v ms: worst relative error %.3g", capacity, capacity, P, worst)
			if worst > 1e-10 {
				t.Errorf("%d×%d at %v ms: worst relative error against GTH %.3g, want at most 1e-10", capacity, capacity, P, worst)
			}
		}
	}
}
