package elab_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aemilia/parser"
	"repro/internal/elab"
)

// TestElaborateAllocs pins Elaborate's allocations on each shipped spec:
// a change that adds allocations to elaboration, such as a label built
// piece by piece, shows here.
func TestElaborateAllocs(t *testing.T) {
	want := map[string]float64{
		"rpc_revised_functional.aem": 114,
		"rpc_revised_markov.aem":     114,
		"rpc_simplified.aem":         80,
		"streaming_functional.aem":   137,
		"streaming_markov.aem":       137,
	}
	for name, n := range want {
		src, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
		if err != nil {
			t.Fatal(err)
		}
		a, err := parser.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := elab.Elaborate(a); err != nil {
				t.Fatal(err)
			}
		})
		if got != n {
			t.Errorf("%s: Elaborate allocates %v times, want %v", name, got, n)
		}
	}
}
