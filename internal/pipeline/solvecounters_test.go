package pipeline_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/models"
	"repro/internal/pipeline"
)

var updateSolveCounters = flag.Bool("update", false, "rewrite testdata/solve_counters.json")

const solveCountersPath = "testdata/solve_counters.json"

// solveCounter is the exact solver work of one sweep point: the chain's
// tangible count, and the scheme and Gauss-Seidel iterations of every
// attempt of a default-options SteadyStateTraced solve.
type solveCounter struct {
	Chain      string   `json:"chain"`
	Knob       float64  `json:"knob_ms"`
	Tangible   int      `json:"tangible"`
	Attempts   int      `json:"attempts"`
	Scheme     []string `json:"scheme"`
	Iterations []int    `json:"iterations"`
}

// TestSolveCounters pins the solver work on the most decomposable
// regimes of the paper's models: rpc with shutdown timeouts from 1e-4 ms
// to 1e5 ms, and 10×10 and 12×12 streaming with awake periods from 1 ms
// to 1e5 ms, where DPM dwell times dwarf the service rates. Every point
// is a Clone, a Rebind to rate 1/knob and a default-options
// SteadyStateTraced, so the file records what one sequential solve of
// that point costs. Run with -update to rewrite the file; a change to any
// entry must be explained.
func TestSolveCounters(t *testing.T) {
	timeouts := []float64{1e-4, 0.5, 25, 1e3, 1e4, 1e5}
	periods := []float64{1, 5, 50, 800, 2000, 1e4, 1e5}
	rpc := models.DefaultRPCParams()
	rpc.ParametricTimeout = true
	stream := func(capacity int64) models.StreamingParams {
		p := models.DefaultStreamingParams()
		p.ParametricPeriod = true
		p.APCapacity, p.ClientCapacity = capacity, capacity
		return p
	}
	s10, s12 := stream(10), stream(12)
	cases := []struct {
		name  string
		spec  pipeline.Spec
		knobs []float64
	}{
		{"rpc-full", pipeline.Spec{Model: elaborateRPC(t, rpc), Measures: models.RPCMeasures(rpc)}, timeouts},
		{"rpc-minimized", pipeline.Spec{Model: elaborateRPC(t, rpc), Measures: models.RPCMeasures(rpc), Minimize: true}, timeouts},
		{"streaming-10x10-full", pipeline.Spec{Model: elaborateStreaming(t, s10), Measures: models.StreamingMeasures(s10)}, periods},
		{"streaming-10x10-minimized", pipeline.Spec{Model: elaborateStreaming(t, s10), Measures: models.StreamingMeasures(s10), Minimize: true}, periods},
		{"streaming-12x12-minimized", pipeline.Spec{Model: elaborateStreaming(t, s12), Measures: models.StreamingMeasures(s12), Minimize: true}, periods},
	}
	var got []solveCounter
	for _, tc := range cases {
		chain, err := pipeline.NewSession(tc.spec, pipeline.Config{}).Chain()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, knob := range tc.knobs {
			c := chain.Clone()
			if err := c.Rebind([]float64{1 / knob}); err != nil {
				t.Fatalf("%s at %v ms: %v", tc.name, knob, err)
			}
			_, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{})
			if err != nil {
				t.Fatalf("%s at %v ms: %v", tc.name, knob, err)
			}
			sc := solveCounter{Chain: tc.name, Knob: knob, Tangible: c.N, Attempts: len(trace.Attempts)}
			for _, a := range trace.Attempts {
				sc.Scheme = append(sc.Scheme, a.Sweep.String())
				sc.Iterations = append(sc.Iterations, a.Iterations)
			}
			got = append(got, sc)
		}
	}

	if *updateSolveCounters {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solveCountersPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(solveCountersPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	var want []solveCounter
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d: got %s, golden %s", i, fmtCounter(got[i]), fmtCounter(want[i]))
		}
	}
}

func fmtCounter(c solveCounter) string {
	return fmt.Sprintf("%s@%vms{tangible %d, attempts %d, %v, iterations %v}",
		c.Chain, c.Knob, c.Tangible, c.Attempts, c.Scheme, c.Iterations)
}
