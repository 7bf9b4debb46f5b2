package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/lts"
	"repro/internal/measure"
)

// DefaultLaneWidth is the sweep-batching width Sweep auto-selects: one
// full group of the eight-lane batched kernel, whose lanes interleave one
// float64 each into exactly one 64-byte cache line.
const DefaultLaneWidth = 8

// sweepHash fingerprints everything a checkpoint must match to be safely
// resumed: the chain's structural solve analysis, the state-space and
// chain sizes, the exact bit patterns of every sweep point, the measure
// names, and the resolved solver tolerance. Two sweeps with the same hash
// solve the same points of the same chain to the same tolerance and
// evaluate the same measures, so exchanging their completed results is
// sound. The iteration budget is left out: it only caps a solve, so it
// never changes a converged value, and resuming with a larger budget is
// how a sweep that failed to converge is completed.
func sweepHash(chain *ctmc.CTMC, l *lts.LTS, points [][]float64, measures []measure.Measure, tolerance float64) (uint64, error) {
	structural, err := chain.StructuralHash()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(structural)
	put(uint64(l.NumStates))
	put(uint64(chain.N))
	put(uint64(chain.NumVanishing()))
	put(uint64(len(points)))
	for _, pt := range points {
		put(uint64(len(pt)))
		for _, v := range pt {
			put(math.Float64bits(v))
		}
	}
	put(uint64(len(measures)))
	for _, m := range measures {
		h.Write([]byte(m.Name))
		h.Write([]byte{0})
	}
	if tolerance <= 0 {
		tolerance = ctmc.DefaultTolerance
	}
	put(math.Float64bits(tolerance))
	return h.Sum64(), nil
}

// Sweep runs the Markovian phase over a family of rate assignments of the
// session's model: the state space is generated once, the CTMC is built
// once, its structural solve analysis (bottom component, reachability) is
// computed once — rate-only rebinds cannot change it — and each point
// rewrites only the rate values before solving. points[i] supplies one
// value per rate slot of the model (points[i][k-1] is the value of slot
// k), and the reports come back in the same order. The session's shared
// chain is never rebound: every sweep call rebinds private clones, so
// concurrent sweeps and Phase2 solves on one session cannot disturb each
// other.
//
// Every point is solved cold, from the uniform start. The points are
// packed in index order into ctmc.SolveBatchLanes chunks of
// Config.LaneWidth lanes (one point per chunk when LaneWidth is 1), and
// the chunks are claimed by Config.Workers workers. Every lane runs
// exactly the floating-point operations of a one-lane SteadyState solve
// at its point, so each report is bit-identical to
// Clone → Rebind(point) → SteadyState → measure.EvalAll on the session's
// chain, at any worker count and lane width. The rebound generator matrix
// is itself bit-identical to a freshly built one, so a point's result
// equals a fresh generate+build+solve at that point's rates up to the
// solver tolerance. A Config Store memoizes the reports under
// SpecHash + point, so overlapping grids share their common points
// whatever point they start from.
//
// Failure handling is deterministic at any worker count:
//
//   - A solver failure is attributed to its sweep point: the returned
//     error names the lowest failed point index (the one a sequential
//     pass over the points would hit first), and an unwrapped
//     *ctmc.ConvergenceError carries the point index and its rate vector.
//   - The converged points below a failed one are still published to
//     the store and the checkpoint, so a checkpointed sweep that fails to
//     converge is completed by resuming it with a larger
//     Solve.MaxIterations, which the checkpoint does not fingerprint.
//   - A panic in a sweep worker is recovered into a
//     *fault.WorkerPanicError instead of crashing the process.
//   - A cancellation via Config.Ctx surfaces as a *fault.CanceledError
//     and never changes the floats of completed points.
//
// The model must carry rate slots (elab.Model.NumRateSlots > 0) to sweep
// more than one point; sweeping a parameter that changes the model's
// structure needs one generation per point instead. A slot-free model is
// accepted with exactly one (empty) point — a single SteadyState solve
// run through the sweep driver for its checkpoint/resume machinery.
func (s *Session) Sweep(points [][]float64) ([]*Phase2Report, error) {
	return s.SweepCheckpointed(points, nil)
}

// SweepCheckpointed is Sweep with a resumable checkpoint (see
// CheckpointOptions): completed point results are periodically written to
// ckOpts.Path, and a run with ckOpts.Resume set solves only the missing
// points — with reports bit-identical to an uninterrupted run, because
// every point's result is a pure function of the chain and its rates.
func (s *Session) SweepCheckpointed(points [][]float64, ckOpts *CheckpointOptions) ([]*Phase2Report, error) {
	if len(points) == 0 {
		return nil, nil
	}
	m, err := s.Model()
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: %w", err)
	}
	numSlots := m.NumRateSlots()
	if numSlots == 0 && len(points) > 1 {
		return nil, fmt.Errorf("pipeline: sweep: model has no rate slots; solve per point instead")
	}
	for i, p := range points {
		if len(p) != numSlots {
			return nil, fmt.Errorf("pipeline: sweep: point %d has %d values, model has %d rate slots", i, len(p), numSlots)
		}
	}
	if ckOpts != nil && ckOpts.Path == "" {
		return nil, fmt.Errorf("pipeline: sweep: checkpoint enabled with an empty path")
	}

	l, err := s.LTS()
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: %w", err)
	}
	pristine, err := s.Chain()
	if err != nil {
		return nil, fmt.Errorf("pipeline: sweep: %w", err)
	}
	spec := &s.st.spec
	measures := spec.Measures
	ctx := s.cfg.Ctx
	solve := spec.Solve
	solve.Ctx = ctx

	report := func(values map[string]float64) *Phase2Report {
		return &Phase2Report{
			Values:    values,
			States:    l.NumStates,
			Tangible:  pristine.N,
			Vanishing: pristine.NumVanishing(),
		}
	}
	reports := make([]*Phase2Report, len(points))

	// Checkpoint bookkeeping: fingerprint the sweep, load a prior
	// checkpoint when resuming, and prefill the reports it holds.
	var ck *ckWriter
	if ckOpts != nil {
		hash, err := sweepHash(pristine, l, points, measures, solve.Tolerance)
		if err != nil {
			return nil, fmt.Errorf("pipeline: sweep: %w", err)
		}
		var prior *checkpoint
		if ckOpts.Resume {
			if prior, err = loadCheckpoint(ckOpts.Path, hash, len(points), report); err != nil {
				return nil, fmt.Errorf("pipeline: sweep: %w", err)
			}
			if prior != nil {
				for i, rep := range prior.completed {
					reports[i] = rep
				}
			}
		}
		ck = newCkWriter(*ckOpts, hash, len(points), prior)
	}

	// storeKey content-addresses one point's report: the spec and the
	// point's exact bits.
	storeKey := func(i int) ResultKey {
		return ResultKey{Spec: s.st.hash, Point: encodePoint(points[i])}
	}

	// Result-store prefill: points the store already holds are restored
	// like checkpointed ones (and recorded to the checkpoint, so a resume
	// file stays complete).
	if s.cfg.Store != nil {
		for i := range points {
			if reports[i] != nil {
				continue
			}
			rep, ok := s.cfg.Store.Get(storeKey(i))
			if !ok {
				continue
			}
			reports[i] = rep
			if ck != nil {
				if err := ck.completed(i, rep); err != nil {
					return nil, fmt.Errorf("pipeline: sweep: point %d: %w", i, err)
				}
			}
		}
	}

	// attribute stamps a solver failure with its global sweep-point index
	// and rate vector (when the failure is a convergence error).
	attribute := func(err error, i int) error {
		var ce *ctmc.ConvergenceError
		if errors.As(err, &ce) {
			ce.Point = i
			ce.Params = append([]float64(nil), points[i]...)
		}
		return err
	}

	// solveLanes solves pts on chain: one batched call
	// when the model has rate slots, else the one-lane SteadyState solve
	// of the single empty point at the chain's built rates. A lane's
	// convergence failure is reported in its laneErrs slot; the error
	// return is reserved for failures of the whole call.
	solveLanes := func(chain *ctmc.CTMC, pts [][]float64) (pis [][]float64, laneErrs []error, err error) {
		if numSlots > 0 {
			return chain.SolveBatchLanes(pts, ctmc.BatchOptions{Solve: solve})
		}
		pi, err := chain.SteadyState(solve)
		var ce *ctmc.ConvergenceError
		if err != nil && !errors.As(err, &ce) {
			return nil, nil, err
		}
		return [][]float64{pi}, []error{err}, nil
	}

	// resolvePoint completes point i from its solve on chain: a lane's
	// failure is the point's, and a converged lane is evaluated on chain
	// rebound to the point's rates.
	resolvePoint := func(chain *ctmc.CTMC, i int, pi []float64, err error) (*Phase2Report, error) {
		if err != nil {
			return nil, err
		}
		if err := chain.Rebind(points[i]); err != nil {
			return nil, err
		}
		values, err := measure.EvalAll(measures, chain, pi)
		if err != nil {
			return nil, err
		}
		return report(values), nil
	}

	// solveChunk solves points[off:off+width] on chain and publishes their
	// reports: the report slot, the result store, then the checkpoint
	// writer (whose write failures are strict — an unwritable checkpoint
	// fails the point rather than silently losing resumability). It
	// returns the failed global point index and error.
	solveChunk := func(chain *ctmc.CTMC, off, width int) (int, error) {
		if err := fault.Check(ctx, "core.sweep", off, -1); err != nil {
			return off, err
		}
		pis, laneErrs, err := solveLanes(chain, points[off:off+width])
		if err != nil {
			idx := off
			var bpe *ctmc.BatchPointError
			if errors.As(err, &bpe) {
				idx, err = off+bpe.Point, bpe.Err
			}
			return idx, attribute(err, idx)
		}
		for lane := 0; lane < width; lane++ {
			i := off + lane
			rep, err := resolvePoint(chain, i, pis[lane], laneErrs[lane])
			if err != nil {
				return i, attribute(err, i)
			}
			reports[i] = rep
			if s.cfg.Store != nil {
				s.cfg.Store.Put(storeKey(i), rep)
			}
			if ck != nil {
				if err := ck.completed(i, rep); err != nil {
					return i, err
				}
			}
		}
		return 0, nil
	}

	// runChunk is solveChunk under the chunk worker's panic guard; the
	// injection sites of the chunk's points are consulted up front so an
	// armed SiteSweepPoint trigger fires at any lane width. The pool name
	// predates the move to this package and is kept stable — it is part
	// of the attribution contract callers match on.
	runChunk := func(w int, chain *ctmc.CTMC, off, width int) (idx int, err error) {
		gerr := fault.Guard("core.sweep", w, fmt.Sprintf("points %d-%d", off, off+width-1), func() error {
			for k := 0; k < width; k++ {
				faultinject.MaybePanic(faultinject.SiteSweepPoint, off+k)
			}
			var serr error
			idx, serr = solveChunk(chain, off, width)
			return serr
		})
		if gerr != nil {
			if err == nil && idx == 0 {
				idx = off // a recovered panic is attributed to the chunk
			}
			return idx, gerr
		}
		return idx, err
	}

	laneWidth := s.cfg.LaneWidth
	if laneWidth <= 0 {
		laneWidth = DefaultLaneWidth
	}
	nChunks := (len(points) + laneWidth - 1) / laneWidth
	chunkAt := func(ch int) (int, int) {
		off := ch * laneWidth
		return off, min(laneWidth, len(points)-off)
	}

	// Chunks are claimed in ascending order, skipping those whose every
	// point was restored from the checkpoint or the store, and the lowest
	// failed point index wins, so the outcome is the same at every worker
	// count.
	workers := max(1, min(s.cfg.Workers, nChunks))
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		next    int
		failIdx = len(points)
		failErr error
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		for failErr == nil && next < nChunks {
			ch := next
			next++
			off, width := chunkAt(ch)
			for _, rep := range reports[off : off+width] {
				if rep == nil {
					return ch
				}
			}
		}
		return -1
	}
	fail := func(idx int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if failErr == nil || idx < failIdx {
			failIdx, failErr = idx, err
		}
	}
	// Each worker rebinds its own private clone of the session's chain.
	for w := 0; w < workers; w++ {
		chain := pristine.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ch := claim()
				if ch < 0 {
					return
				}
				off, width := chunkAt(ch)
				if idx, err := runChunk(w, chain, off, width); err != nil {
					fail(idx, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		return nil, fmt.Errorf("pipeline: sweep: point %d: %w", failIdx, failErr)
	}
	return reports, nil
}
