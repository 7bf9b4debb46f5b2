package pipeline_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/pipeline"
)

// TestSolverBitsIndependentOfWorkers pins the promise behind the store
// key excluding Config.Workers: on the compose-minimized 12×12 streaming
// model (3198 tangible states) the store key, the Phase2 values and a
// batched three-point sweep are bit-identical at one and two workers. A
// Store shared across worker counts serves whichever bits it computed
// first, so any scheduling dependence in the solver would leak into
// cached results.
func TestSolverBitsIndependentOfWorkers(t *testing.T) {
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = 12, 12
	p.ParametricPeriod = true
	a, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := pipeline.Spec{Arch: a, Measures: models.StreamingMeasures(p), Minimize: true}
	points := [][]float64{{1.0 / 25}, {1.0 / 200}, {1.0 / 800}}

	var keys []string
	var reports [][]*pipeline.Phase2Report // Phase2, then the sweep points
	for _, workers := range []int{1, 2} {
		s := pipeline.NewSession(spec, pipeline.Config{Workers: workers})
		rep, err := s.Phase2()
		if err != nil {
			t.Fatalf("workers=%d: Phase2: %v", workers, err)
		}
		if rep.Tangible != 3198 {
			t.Fatalf("workers=%d: %d tangible states, want 3198", workers, rep.Tangible)
		}
		reps, err := s.Sweep(points)
		if err != nil {
			t.Fatalf("workers=%d: Sweep: %v", workers, err)
		}
		key, err := s.ResultModel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		keys = append(keys, key)
		reports = append(reports, append([]*pipeline.Phase2Report{rep}, reps...))
	}
	if keys[0] != keys[1] {
		t.Fatalf("store key depends on workers: %s vs %s", keys[0], keys[1])
	}
	requireSameReports(t, "workers 1 vs 2 (report 0 is Phase2)", reports[0], reports[1])
}
