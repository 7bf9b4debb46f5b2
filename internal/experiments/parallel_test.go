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

// TestFig3GeneralWorkerDeterminism is the tentpole's acceptance check:
// the same seed produces identical sweep output at workers=1 and
// workers=8, both across sweep points and across the replications inside
// each point.
func TestFig3GeneralWorkerDeterminism(t *testing.T) {
	run := func(workers int) []RPCPoint {
		pts, err := NewRunner(pipeline.Config{Workers: workers}).Fig3General([]float64{2, 10, 20},
			pipeline.SimSettings{RunLength: 600, Replications: 4})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig3General differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
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

// TestFig4MarkovWorkerDeterminism pins the pure-Markovian sweep path
// (RunPoints + cached models, no simulation) to the same contract.
func TestFig4MarkovWorkerDeterminism(t *testing.T) {
	run := func(workers int) []StreamingPoint {
		pts, err := NewRunner(pipeline.Config{Workers: workers}).Fig4Markov([]float64{50, 200, 400}, Quick)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig4Markov differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
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
