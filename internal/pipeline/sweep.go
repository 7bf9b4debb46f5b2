package pipeline

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/faultinject"
)

// Sweep runs the Markovian phase over a family of rate assignments of the
// session's model: the state space is generated once, the CTMC is built
// once, its structural solve analysis (bottom component, reachability) is
// computed once — no rate point can change it — and each point is passed
// as an argument to the solve and the measure evaluation. points[i]
// supplies one value per rate slot of the model (points[i][k-1] is the
// value of slot k), and the reports come back in the same order. The
// session's chain is only read, so concurrent sweeps and Phase2 solves on
// one session share it.
//
// Every point is solved cold, from the uniform start. The points are
// packed in index order into ctmc.SolveBatchLanes chunks of
// ctmc.BatchLanes points — one four-lane group; the last chunk may be
// shorter — and the chunks run on fault.Pool with Config.Workers
// workers. Every lane runs exactly the floating-point operations of a
// one-lane solo solve at its point, and every worker evaluates the
// session's one compiled measure set at the point, so each report is
// bit-identical, at any worker count, to binding the slots of the
// session's LTS to the point's values, then Build, SteadyStateTraced and
// measure.Compile → Eval. A Config Store memoizes the reports
// point by point (see resultModel), so overlapping grids share their
// common points whatever point they start from, and a sweep whose every
// point the store holds generates nothing. Through a FileStore the
// points outlive the process: a sweep that was canceled or failed is
// resumed by running it again on the loaded store, which solves only the
// points it lacks, each cold, exactly as an uninterrupted run would.
//
// Failure handling is deterministic at any worker count:
//
//   - A solver failure is attributed to its sweep point: the returned
//     error names the lowest failed point index (the one a sequential
//     pass over the points would hit first), and an unwrapped
//     *ctmc.ConvergenceError carries the point index and its rate vector.
//   - The converged points below a failed one are still published to
//     the store, so a sweep that fails to converge is completed by
//     resuming it with a larger Solve.MaxIterations, which the store key
//     leaves out.
//   - A failed Store.Put fails its point: a run never carries on
//     believing it can be resumed when its results were not recorded.
//   - A panic in a sweep worker is recovered into a
//     *fault.WorkerPanicError instead of crashing the process.
//   - A cancellation via Config.Ctx surfaces as a *fault.CanceledError
//     and never changes the floats of completed points.
//
// The model must carry rate slots (elab.Model.NumRateSlots > 0); a
// slot-free model is refused, and Phase2 solves it. Sweeping a parameter
// that changes the model's structure needs one session per point
// instead.
func (s *Session) Sweep(points [][]float64) ([]*Phase2Report, error) {
	if len(points) == 0 {
		return nil, nil
	}
	m, err := s.Model()
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: %w", err)
	}
	numSlots := m.NumRateSlots()
	if numSlots == 0 {
		return nil, fmt.Errorf("pipeline: sweep: model has no rate slots; use Phase2 to solve it")
	}
	for i, p := range points {
		if len(p) != numSlots {
			return nil, fmt.Errorf("pipeline: sweep: point %d: %w", i, &ctmc.RebindError{Want: numSlots, Got: len(p)})
		}
	}
	reports := make([]*Phase2Report, len(points))

	// Result-store prefill: the points the store already holds are not
	// solved again.
	var keys []ResultKey
	if s.cfg.Store != nil {
		model, err := s.resultModel()
		if err != nil {
			return nil, fmt.Errorf("pipeline: sweep: %w", err)
		}
		keys = make([]ResultKey, len(points))
		for i := range points {
			keys[i] = ResultKey{Model: model, Point: encodePoint(points[i])}
			reports[i], _ = s.cfg.Store.Get(keys[i])
		}
	}

	// A chunk is one four-lane group of the batched kernel. Chunks whose
	// every point was restored from the store are not queued; each queued
	// chunk keeps its failed point index beside it, the chunk's first
	// point until solveChunk names another.
	type chunk struct{ off, width, failed int }
	var pending []chunk
	for off := 0; off < len(points); off += ctmc.BatchLanes {
		w := min(ctmc.BatchLanes, len(points)-off)
		if slices.Contains(reports[off:off+w], nil) {
			pending = append(pending, chunk{off: off, width: w, failed: off})
		}
	}
	if len(pending) == 0 {
		return reports, nil
	}

	l, err := s.LTS()
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: %w", err)
	}
	chain, err := s.Chain()
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: %w", err)
	}
	compiled, err := s.measures()
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: %w", err)
	}
	ctx := s.cfg.Ctx
	solve := s.solveOptions()

	// solveChunk solves points[off:off+width] in one batched call and
	// publishes their reports to their slots and the result store: a
	// lane's convergence failure is its point's, and a converged lane is
	// evaluated at the point's rates through the session's compiled
	// measures. It returns the failed global point index and error.
	solveChunk := func(off, width int) (int, error) {
		if err := fault.Check(ctx, "core.sweep", off, -1); err != nil {
			return off, err
		}
		pis, laneErrs, err := chain.SolveBatchLanes(points[off:off+width], solve)
		if err != nil {
			idx := off
			var bpe *ctmc.BatchPointError
			if errors.As(err, &bpe) {
				idx, err = off+bpe.Point, bpe.Err
			}
			return idx, err
		}
		for lane := 0; lane < width; lane++ {
			i := off + lane
			if err := laneErrs[lane]; err != nil {
				// SolveBatchLanes stamped the convergence error with its
				// lane and rate vector; the point is the global index.
				var ce *ctmc.ConvergenceError
				if errors.As(err, &ce) {
					ce.Point = i
				}
				return i, err
			}
			rep := &Phase2Report{
				Values:    compiled.Eval(chain, pis[lane], points[i]),
				States:    l.NumStates,
				Tangible:  chain.N,
				Vanishing: chain.NumVanishing(),
			}
			reports[i] = rep
			if s.cfg.Store != nil {
				if err := s.cfg.Store.Put(keys[i], rep); err != nil {
					return i, err
				}
			}
		}
		return 0, nil
	}

	// Every worker solves the session's one chain. The injection sites
	// of a chunk's points are consulted before its batched solve, so an
	// armed SiteSweepPoint trigger fires at whichever lane its point
	// occupies. The pool name predates the move to this package and is
	// kept stable — it is part of the attribution contract callers match
	// on.
	failed, err := fault.Pool("core.sweep", len(pending), s.cfg.Workers,
		func(c int) string {
			return fmt.Sprintf("points %d-%d", pending[c].off, pending[c].off+pending[c].width-1)
		},
		func(_, c int) (err error) {
			ch := &pending[c]
			for k := 0; k < ch.width; k++ {
				faultinject.MaybePanic(faultinject.SiteSweepPoint, ch.off+k)
			}
			ch.failed, err = solveChunk(ch.off, ch.width)
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: point %d: %w", pending[failed].failed, err)
	}
	return reports, nil
}
