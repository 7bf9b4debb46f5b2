package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/pipeline"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// collectGolden runs a quick-scale cut of every experiment behind the
// paper's figures — the Fig. 3–8 points, the policy comparison, and the
// battery study — at the given worker count and returns the results keyed
// by experiment name. Floats are serialized by encoding/json, which emits
// the shortest representation that round-trips, so equal JSON bytes mean
// bit-identical float64 results.
func collectGolden(t *testing.T, workers int) map[string]json.RawMessage {
	t.Helper()
	r := NewRunner(pipeline.Config{Workers: workers})
	rpcSim := pipeline.SimSettings{RunLength: 500, Replications: 3}
	strSim := pipeline.SimSettings{RunLength: 2000, Warmup: 500, Replications: 2}

	out := make(map[string]json.RawMessage)
	record := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		out[name] = raw
	}

	v1, err := r.Fig3Markov([]float64{0.5, 5, 25})
	record("fig3_markov", v1, err)
	v2, err := r.Fig3General([]float64{2, 10}, rpcSim)
	record("fig3_general", v2, err)
	v3, err := r.Fig4Markov([]float64{50, 400}, Quick)
	record("fig4_markov", v3, err)
	v4, err := r.Fig5Validation([]float64{5}, rpcSim)
	record("fig5_validation", v4, err)
	v5, err := r.Fig6General([]float64{100}, Quick, strSim)
	record("fig6_general", v5, err)
	v6, err := r.Fig7Tradeoff([]float64{1, 10}, rpcSim)
	record("fig7_tradeoff", v6, err)
	v7, err := r.Fig8Tradeoff([]float64{100, 400}, Quick, strSim)
	record("fig8_tradeoff", v7, err)
	v8, err := r.PolicyComparison(5)
	record("policy_comparison", v8, err)
	v9, err := r.BatteryLifetime(1000, 5, 100)
	record("battery_lifetime", v9, err)
	v10, err := r.StreamingStartupTransient([]float64{100, 500}, 100, Quick)
	record("startup_transient", v10, err)
	return out
}

// TestGoldenExperimentOutputs pins the numerical output of the whole
// experiment suite: any change to state-space generation, CTMC extraction,
// solving, or simulation that perturbs a single bit of any figure point
// fails this test. The same results must be produced at workers=1 and
// workers=8 (the engine's determinism contract).
func TestGoldenExperimentOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite is not short")
	}
	goldenPath := filepath.Join("testdata", "golden_quick.json")

	seq := collectGolden(t, 1)
	par := collectGolden(t, 8)
	for name, want := range seq {
		if got, ok := par[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: workers=8 output differs from workers=1", name)
		}
	}

	got, err := json.MarshalIndent(seq, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		var gotM, wantM map[string]json.RawMessage
		if json.Unmarshal(got, &gotM) == nil && json.Unmarshal(want, &wantM) == nil {
			for name := range wantM {
				if !bytes.Equal(gotM[name], wantM[name]) {
					t.Errorf("%s: output differs from golden", name)
				}
			}
		}
		t.Fatalf("experiment outputs differ from %s (run with -update to regenerate)", goldenPath)
	}
}

// approxEqualJSON compares two JSON documents structurally, requiring
// numbers to agree within relative tolerance and everything else to be
// equal.
func approxEqualJSON(t *testing.T, name string, a, b json.RawMessage, tol float64) {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	var walk func(path string, x, y any)
	walk = func(path string, x, y any) {
		switch xv := x.(type) {
		case float64:
			yv, ok := y.(float64)
			if !ok {
				t.Fatalf("%s%s: number vs %T", name, path, y)
			}
			diff := math.Abs(xv - yv)
			if rel := diff / math.Max(math.Abs(xv), 1e-12); rel > tol && diff > 1e-12 {
				t.Errorf("%s%s: %g vs %g (rel %g > %g)", name, path, xv, yv, rel, tol)
			}
		case map[string]any:
			yv, ok := y.(map[string]any)
			if !ok || len(xv) != len(yv) {
				t.Fatalf("%s%s: object shape differs", name, path)
			}
			for k := range xv {
				walk(path+"."+k, xv[k], yv[k])
			}
		case []any:
			yv, ok := y.([]any)
			if !ok || len(xv) != len(yv) {
				t.Fatalf("%s%s: array shape differs", name, path)
			}
			for i := range xv {
				walk(path+"["+strconv.Itoa(i)+"]", xv[i], yv[i])
			}
		default:
			if x != y {
				t.Errorf("%s%s: %v vs %v", name, path, x, y)
			}
		}
	}
	walk("", va, vb)
}
