package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

// collectMarkovian runs the catalog entries with no general phase — the
// Markovian slice of the experiment suite — at their golden cuts through
// a Runner with the given worker count, folded or on the unfolded oracle,
// and returns the results keyed by their golden keys.
func collectMarkovian(t *testing.T, workers int, unfolded bool) map[string]json.RawMessage {
	r := NewRunner(pipeline.Config{Workers: workers})
	r.unfolded = unfolded
	return collectCatalog(t, r, func(e *entry) bool { return e.phases&phaseGeneral == 0 })
}

// TestGoldenMinimizeAgreement pins folding, the one Markovian path, on
// the paper's Markovian experiments: the folded suite is bit-identical at
// workers {1,2,8}, and its measures agree with the unfolded oracle within
// 1e-6 (they differ only by solver arithmetic on the reduced chain —
// folding preserves every measure exactly).
func TestGoldenMinimizeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite is not short")
	}
	full := collectMarkovian(t, 1, true)
	ref := collectMarkovian(t, 1, false)
	for _, workers := range []int{2, 8} {
		got := collectMarkovian(t, workers, false)
		for name, want := range ref {
			if !bytes.Equal(got[name], want) {
				t.Errorf("%s: folded output differs at workers=%d from workers=1", name, workers)
			}
		}
	}
	for name := range full {
		approxEqualJSON(t, fmt.Sprintf("%s(folded-vs-unfolded)", name), full[name], ref[name], 1e-6)
	}
}
