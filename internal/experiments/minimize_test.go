package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

// collectMinimize runs the Markovian slice of the experiment suite — the
// Fig. 3/4 sweeps, the policy comparison, the battery lifetimes and the
// startup transient — through a Runner with the given worker count and
// composition policy, and returns the results keyed by experiment name.
func collectMinimize(t *testing.T, workers int, minimize bool) map[string]json.RawMessage {
	t.Helper()
	r := NewRunner(pipeline.Config{Workers: workers, Minimize: minimize})

	out := make(map[string]json.RawMessage)
	record := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s (minimize=%t workers=%d): %v", name, minimize, workers, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		out[name] = raw
	}
	v1, err := r.Fig3Markov([]float64{0.5, 5, 25})
	record("fig3_markov", v1, err)
	v2, err := r.Fig4Markov([]float64{50, 400}, Quick)
	record("fig4_markov", v2, err)
	v3, err := r.PolicyComparison(5)
	record("policy_comparison", v3, err)
	v4, err := r.BatteryLifetime(1000, 5, 100)
	record("battery_lifetime", v4, err)
	v5, err := r.StreamingStartupTransient([]float64{100, 500}, 100, Quick)
	record("startup_transient", v5, err)
	return out
}

// TestGoldenMinimizeAgreement pins the compositional-minimization
// contract on the paper's Markovian experiments: the minimized path is
// bit-identical at workers {1,2,8}, and its measures agree with the
// full-composition path within 1e-6 (they differ only by solver
// arithmetic on the reduced chain — the quotient-plus-fold construction
// preserves every measure exactly).
func TestGoldenMinimizeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite is not short")
	}
	full := collectMinimize(t, 1, false)
	ref := collectMinimize(t, 1, true)
	for _, workers := range []int{2, 8} {
		got := collectMinimize(t, workers, true)
		for name, want := range ref {
			if !bytes.Equal(got[name], want) {
				t.Errorf("%s: minimized output differs at workers=%d from workers=1", name, workers)
			}
		}
	}
	for name := range full {
		approxEqualJSON(t, fmt.Sprintf("%s(min-vs-full)", name), full[name], ref[name], 1e-6)
	}
}
