package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

// collectMinimize runs the catalog entries with no general phase — the
// Markovian slice of the experiment suite — at their golden cuts through
// a Runner with the given worker count and composition policy, and
// returns the results keyed by their golden keys.
func collectMinimize(t *testing.T, workers int, minimize bool) map[string]json.RawMessage {
	return collectCatalog(t, pipeline.Config{Workers: workers, Minimize: minimize},
		func(e *entry) bool { return e.phases&phaseGeneral == 0 })
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
