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
	timeouts := []float64{0.5, 5, 25}
	periods := []float64{50, 400}

	ref := NewRunner(pipeline.Config{Workers: 1})
	wantRPC, err := ref.Fig3Markov(timeouts)
	if err != nil {
		t.Fatalf("reference Fig3Markov: %v", err)
	}
	wantStreaming, err := ref.Fig4Markov(periods, Quick)
	if err != nil {
		t.Fatalf("reference Fig4Markov: %v", err)
	}

	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(pipeline.Config{Workers: workers, Store: pipeline.NewMemoryStore()})
		gotRPC, err := r.Fig3Markov(timeouts)
		if err != nil {
			t.Fatalf("workers=%d: Fig3Markov: %v", workers, err)
		}
		if !reflect.DeepEqual(gotRPC, wantRPC) {
			t.Errorf("workers=%d: rpc session path diverged from the reference run:\n got %+v\nwant %+v",
				workers, gotRPC, wantRPC)
		}
		gotStreaming, err := r.Fig4Markov(periods, Quick)
		if err != nil {
			t.Fatalf("workers=%d: Fig4Markov: %v", workers, err)
		}
		if !reflect.DeepEqual(gotStreaming, wantStreaming) {
			t.Errorf("workers=%d: streaming session path diverged from the reference run:\n got %+v\nwant %+v",
				workers, gotStreaming, wantStreaming)
		}
	}
}
