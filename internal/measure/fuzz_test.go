package measure

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseMeasures feeds the measure parser arbitrary text, seeded with
// the paper's two measure files. Parse must never panic, and a nil error
// must come with at least one measure.
func FuzzParseMeasures(f *testing.F) {
	for _, name := range []string{"rpc.msr", "streaming.msr"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("MEASURE x IS")
	f.Add("MEASURE r IS ENABLED(A.b) -> STATE_REWARD(1);;")
	f.Fuzz(func(t *testing.T, src string) {
		ms, err := Parse(src)
		if err == nil && len(ms) == 0 {
			t.Fatalf("Parse(%q) returned no measures and no error", src)
		}
	})
}
