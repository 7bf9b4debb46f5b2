package pipeline_test

import (
	"fmt"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// TestSolverBitsIndependentOfWorkers pins the promise behind SpecHash
// excluding Config.Workers: on the compose-minimized 12×12 streaming
// model (3198 tangible states under SweepAuto) the spec hash, the Phase2
// values and a batched three-point sweep are bit-identical at one and two
// workers. A Manager or Store shared across worker counts serves whichever
// bits it computed first, so any scheduling dependence in the solver
// would leak into cached results.
func TestSolverBitsIndependentOfWorkers(t *testing.T) {
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = 12, 12
	p.ParametricPeriod = true
	spec := pipeline.Spec{
		Key:      fmt.Sprintf("streaming:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) },
		Measures: models.StreamingMeasures(p),
		Minimize: true,
		Solve:    ctmc.SolveOptions{Sweep: ctmc.SweepAuto},
	}
	points := [][]float64{{1.0 / 25}, {1.0 / 200}, {1.0 / 800}}

	var hashes []pipeline.SpecHash
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
		hashes = append(hashes, s.SpecHash())
		reports = append(reports, append([]*pipeline.Phase2Report{rep}, reps...))
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("spec hash depends on workers: %s vs %s", hashes[0], hashes[1])
	}
	requireSameReports(t, "workers 1 vs 2 (report 0 is Phase2)", reports[0], reports[1])
}
