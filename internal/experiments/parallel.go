package experiments

import (
	"fmt"

	"repro/internal/fault"
)

// RunPoints evaluates fn over every point on fault.Pool and returns the
// results in point order. The pool claims points in index order, stops
// handing out work after the first failure and reports the lowest-index
// error, exactly what a sequential loop would return; a panicking fn
// surfaces as a *fault.WorkerPanicError of pool "experiments" naming its
// worker and "point i".
//
// It is the pool for every point that pipeline.Session.Sweep cannot take:
// simulation points, per-policy studies, and the structure-changing
// fallback points of the Markovian sweeps (a timeout or period <= 0),
// each of which needs its own model rather than a rate point.
func RunPoints[P, R any](points []P, workers int, fn func(P) (R, error)) ([]R, error) {
	out := make([]R, len(points))
	_, err := fault.Pool("experiments", len(points), workers,
		func(i int) string { return fmt.Sprintf("point %d", i) },
		func(_, i int) (err error) {
			out[i], err = fn(points[i])
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
