package experiments

import (
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

// TestSessionPathMatchesLegacyAcrossWorkersAndLanes is the bit-identity
// contract of the session layer: a Runner at any worker count, with the
// result store enabled, must produce byte-for-byte the results of the
// sequential reference run (one worker, no store) on both study models.
func TestSessionPathMatchesLegacyAcrossWorkersAndLanes(t *testing.T) {
	for _, c := range []struct {
		study *caseStudy
		scale Scale
		grid  []float64
	}{
		{rpcCase, Full, []float64{0.5, 5, 25}},
		{streamingCase, Quick, []float64{50, 400}},
	} {
		want, err := NewRunner(pipeline.Config{Workers: 1}).compareMarkov(c.study, c.scale, c.grid)
		if err != nil {
			t.Fatalf("reference %s: %v", c.study.knob, err)
		}
		for _, workers := range []int{1, 2, 8} {
			r := NewRunner(pipeline.Config{Workers: workers, Store: pipeline.NewMemoryStore()})
			got, err := r.compareMarkov(c.study, c.scale, c.grid)
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, c.study.knob, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: %s session path diverged from the reference run:\n got %+v\nwant %+v",
					workers, c.study.knob, got, want)
			}
		}
	}
}
