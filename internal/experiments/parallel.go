package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// RunPoints evaluates fn over every point on a bounded worker pool and
// returns the results in point order. Points are claimed in index order
// and the pool stops handing out work after the first failure; the
// reported error is the lowest-index one, exactly what a sequential loop
// would return. A panicking fn is recovered into a
// *fault.WorkerPanicError attributed to its worker and point instead of
// crashing the process. workers <= 1 runs sequentially.
//
// It is the pool for every point that pipeline.Session.Sweep cannot take:
// simulation points, per-policy studies, and the structure-changing
// fallback points of the Markovian sweeps (a timeout or period <= 0),
// each of which needs its own model rather than a rate rebind.
func RunPoints[P, R any](points []P, workers int, fn func(P) (R, error)) ([]R, error) {
	call := func(w, i int) (R, error) {
		var r R
		err := fault.Guard("experiments", w, fmt.Sprintf("point %d", i), func() error {
			var ferr error
			r, ferr = fn(points[i])
			return ferr
		})
		return r, err
	}
	out := make([]R, len(points))
	if workers > len(points) {
		workers = len(points)
	}
	if workers <= 1 {
		for i := range points {
			r, err := call(0, i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		stop atomic.Bool
		errs = make([]error, len(points))
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) || stop.Load() {
					return
				}
				r, err := call(w, i)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				out[i] = r
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
