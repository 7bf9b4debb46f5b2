package experiments

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/pipeline"
)

// TestRunPointsPanic checks RunPoints's side of the fault.Pool contract:
// a panicking point surfaces as a *fault.WorkerPanicError of pool
// "experiments" naming the point, at any worker count, and the lowest
// failed point wins over a later one.
func TestRunPointsPanic(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := RunPoints([]int{0, 1, 2, 3, 4, 5}, workers, func(p int) (int, error) {
			switch p {
			case 2:
				panic("point two")
			case 4:
				return 0, boom
			}
			return p, nil
		})
		var wpe *fault.WorkerPanicError
		if !errors.As(err, &wpe) || wpe.Pool != "experiments" || wpe.Task != "point 2" {
			t.Errorf("workers=%d: err = %v, want the panic of point 2", workers, err)
		}
	}
}

// checkWorkerDeterminism pins a comparison driver to the engine's
// determinism contract: the same seed produces identical output at
// workers=1 and workers=8.
func checkWorkerDeterminism(t *testing.T, name string, compare func(*Runner) ([]Comparison, error)) {
	t.Helper()
	var pts [2][]Comparison
	for i, workers := range []int{1, 8} {
		var err error
		if pts[i], err = compare(NewRunner(pipeline.Config{Workers: workers})); err != nil {
			t.Fatalf("%s, workers=%d: %v", name, workers, err)
		}
	}
	if !reflect.DeepEqual(pts[0], pts[1]) {
		t.Errorf("%s comparison differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", name, pts[0], pts[1])
	}
}

// TestFig3GeneralWorkerDeterminism covers the general phase of the rpc
// comparison, across knob points and the replications inside each point.
func TestFig3GeneralWorkerDeterminism(t *testing.T) {
	checkWorkerDeterminism(t, "general rpc", func(r *Runner) ([]Comparison, error) {
		return r.compareGeneral(rpcCase, Full, []float64{2, 10, 20}, pipeline.SimSettings{RunLength: 600, Replications: 4})
	})
}

// TestFig5ValidationWorkerDeterminism covers the mixed analytic+simulated
// sweep: CTMC solutions and simulation estimates must both be identical
// at any worker count.
func TestFig5ValidationWorkerDeterminism(t *testing.T) {
	run := func(workers int) []ValidationPoint {
		pts, err := NewRunner(pipeline.Config{Workers: workers}).Fig5Validation([]float64{5, 20},
			pipeline.SimSettings{RunLength: 1000, Replications: 3})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig5Validation differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFig4MarkovWorkerDeterminism covers the Markovian phase of the
// streaming comparison: the rate-parametric sweep with no simulation.
func TestFig4MarkovWorkerDeterminism(t *testing.T) {
	checkWorkerDeterminism(t, "Markovian streaming", func(r *Runner) ([]Comparison, error) {
		return r.compareMarkov(streamingCase, Quick, []float64{50, 200, 400})
	})
}

// TestBatteryWorkerDeterminism pins the battery lifetimes, one series and
// root find per policy point, to the same contract at workers 1, 2 and 8.
func TestBatteryWorkerDeterminism(t *testing.T) {
	run := func(workers int) []BatteryPoint {
		pts, err := NewRunner(pipeline.Config{Workers: workers}).BatteryLifetime(2000, 5)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Errorf("BatteryLifetime differs between workers=1 and workers=%d:\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
}
