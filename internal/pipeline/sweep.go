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
// chain sizes, the exact bit patterns of every sweep point, and the
// measure names. Two sweeps with the same hash solve the same points of
// the same chain and evaluate the same measures, so exchanging their
// completed results is sound.
func sweepHash(chain *ctmc.CTMC, l *lts.LTS, points [][]float64, measures []measure.Measure) (uint64, error) {
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
// The first point is the sweep's anchor: it is solved cold (uniform
// start) and its solution seeds every other point's solver as a warm
// start. The seed is a pure function of the input — never of scheduling —
// so the reports are bit-identical at any worker count and lane width:
// the non-anchor points are packed in index order into SolveBatch calls
// of Config.LaneWidth lanes (or solved one by one when LaneWidth is 1),
// and every lane replicates the per-point solver's floating-point
// operations exactly. Each point's result equals a fresh
// generate+build+solve of the same model at that point's rates, up to the
// solver tolerance (the rebound generator matrix itself is bit-identical
// to a freshly built one). Anchors are staged per session state, so a
// second sweep from the same anchor reuses its solution, and a Config
// Store memoizes the non-anchor reports under SpecHash + anchor + point.
//
// Failure handling is deterministic at any worker count:
//
//   - A solver failure is attributed to its sweep point: the returned
//     error names the lowest failed point index (what a sequential
//     per-point loop would hit first), and an unwrapped
//     *ctmc.ConvergenceError carries the point index and its rate vector.
//   - With the spec's Solve.Escalation set to ctmc.EscalateLadder, a
//     point that fails to converge is retried through the deterministic
//     escalation ladder (see ctmc.EscalateLadder); a recovered point's
//     report carries the attempt trace in Phase2Report.Trace. Batched
//     lanes escalate exactly like solo points: a lane's base failure is
//     bit-identical to the solo base attempt, and the ladder re-solves
//     the lane solo from rung 1.
//   - A panic in a sweep worker is recovered into a
//     *fault.WorkerPanicError instead of crashing the process.
//   - A cancellation via Config.Ctx surfaces as a *fault.CanceledError
//     and never changes the floats of completed points.
//
// The model must carry rate slots (elab.Model.NumRateSlots > 0) to sweep
// more than one point; sweeping a parameter that changes the model's
// structure needs one generation per point instead. A slot-free model is
// accepted with exactly one (empty) point — a single solve run through
// the sweep driver for its checkpoint/resume and escalation machinery.
func (s *Session) Sweep(points [][]float64) ([]*Phase2Report, error) {
	return s.SweepCheckpointed(points, nil)
}

// SweepCheckpointed is Sweep with a resumable checkpoint (see
// CheckpointOptions): completed point results and the anchor solution are
// periodically written to ckOpts.Path, and a run with ckOpts.Resume set
// solves only the missing points — with reports bit-identical to an
// uninterrupted run, because every point's result is a pure function of
// the input and the anchor solution.
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
	spec := &s.st.spec
	if len(spec.Solve.WarmStart) != 0 {
		return nil, fmt.Errorf("pipeline: sweep: SolveOptions.WarmStart is managed by the sweep")
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
	// The work chain is a private clone: Rebind rewrites the rate values
	// in place, and the session's shared chain must stay at its built
	// rates for concurrent Phase2/transient callers. The clone shares the
	// structural solve plan, and a rebound clone's generator is
	// bit-identical to a rebound original, so nothing about the results
	// changes.
	base := pristine.Clone()
	measures := spec.Measures
	ctx := s.cfg.Ctx

	// attribute stamps a solver failure with its global sweep-point index
	// and rate vector (when the failure is a convergence error that does
	// not already carry them).
	attribute := func(err error, i int) error {
		var ce *ctmc.ConvergenceError
		if errors.As(err, &ce) {
			ce.Point = i
			ce.Params = append([]float64(nil), points[i]...)
		}
		return err
	}

	report := func(values map[string]float64) *Phase2Report {
		return &Phase2Report{
			Values:    values,
			States:    l.NumStates,
			Tangible:  base.N,
			Vanishing: base.NumVanishing(),
		}
	}

	// mkSolve builds one point's solver options: the session's context,
	// the given warm start, and escalation stripped — the sweep runs the
	// ladder itself so that batched lanes and solo points share one
	// escalation path.
	mkSolve := func(warm []float64) ctmc.SolveOptions {
		solve := spec.Solve
		solve.Ctx = ctx
		solve.WarmStart = warm
		solve.Escalation = ctmc.EscalateNever
		return solve
	}

	// forcedCE synthesizes the convergence error an injected
	// SiteSweepNonconverge trigger reports for a point whose base solve
	// actually converged — the hook the escalation property tests use.
	forcedCE := func(chain *ctmc.CTMC, warm []float64) (*ctmc.ConvergenceError, error) {
		resolved, err := chain.ResolveSolve(mkSolve(warm))
		if err != nil {
			return nil, err
		}
		return &ctmc.ConvergenceError{Residual: 1, Tolerance: resolved.Tolerance, Sweep: resolved.Sweep, Point: -1}, nil
	}

	// escalateLane runs the escalation ladder for point i whose base solve
	// (solo or batched lane — the two are bit-identical) failed with ce.
	// The trace's attempt 0 records the base failure exactly as
	// ctmc.SteadyStateTraced would, so the ladder position is a pure
	// function of the point's input, never of how lanes were packed.
	escalateLane := func(chain *ctmc.CTMC, i int, warm []float64, ce *ctmc.ConvergenceError, forced bool) ([]float64, *ctmc.SolveTrace, error) {
		if err := chain.Rebind(points[i]); err != nil {
			return nil, nil, err
		}
		solve := mkSolve(warm)
		resolved, err := chain.ResolveSolve(solve)
		if err != nil {
			return nil, nil, err
		}
		action := "base"
		if forced {
			action = "forced-nonconvergence"
		}
		trace := &ctmc.SolveTrace{Attempts: []ctmc.SolveAttempt{{
			Rung:          0,
			Action:        action,
			Sweep:         ce.Sweep,
			MaxIterations: resolved.MaxIterations,
			Omega:         resolved.Omega,
			WarmStart:     len(resolved.WarmStart) > 0,
			Iterations:    ce.Iterations,
			Residual:      ce.Residual,
		}}}
		return chain.EscalateFrom(solve, trace)
	}

	// solveAt solves one point on the given chain: rebind, base solve,
	// injected-nonconvergence check, escalation, measure evaluation. It
	// returns the report and the solution vector (the anchor needs the
	// latter to seed the warm starts).
	solveAt := func(chain *ctmc.CTMC, i int, warm []float64) (*Phase2Report, []float64, error) {
		if err := fault.Check(ctx, "core.sweep", i, -1); err != nil {
			return nil, nil, err
		}
		if err := chain.Rebind(points[i]); err != nil {
			return nil, nil, err
		}
		pi, err := chain.SteadyState(mkSolve(warm))
		var trace *ctmc.SolveTrace
		forced := false
		if err == nil && faultinject.Fire(faultinject.SiteSweepNonconverge, i) {
			ce, ferr := forcedCE(chain, warm)
			if ferr != nil {
				return nil, nil, ferr
			}
			err = ce
			forced = true
		}
		if err != nil {
			var ce *ctmc.ConvergenceError
			if spec.Solve.Escalation == ctmc.EscalateLadder && errors.As(err, &ce) {
				pi, trace, err = escalateLane(chain, i, warm, ce, forced)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		values, err := measure.EvalAll(measures, chain, pi)
		if err != nil {
			return nil, nil, err
		}
		rep := report(values)
		rep.Trace = trace
		return rep, pi, nil
	}

	// solvePoint is solveAt under the sweep worker's panic guard: a crash
	// (or an injected fault keyed by the point index) surfaces as a
	// *fault.WorkerPanicError attributed to this worker and point. The
	// pool name predates the move to this package and is kept stable —
	// it is part of the attribution contract callers match on.
	solvePoint := func(w int, chain *ctmc.CTMC, i int, warm []float64) (rep *Phase2Report, pi []float64, err error) {
		gerr := fault.Guard("core.sweep", w, fmt.Sprintf("point %d", i), func() error {
			faultinject.MaybePanic(faultinject.SiteSweepPoint, i)
			var serr error
			rep, pi, serr = solveAt(chain, i, warm)
			return serr
		})
		if gerr != nil {
			return nil, nil, gerr
		}
		return rep, pi, nil
	}

	reports := make([]*Phase2Report, len(points))

	// Checkpoint bookkeeping: fingerprint the sweep, load a prior
	// checkpoint when resuming, and prefill the reports it holds.
	var (
		hash  uint64
		prior *checkpoint
		ck    *ckWriter
	)
	if ckOpts != nil {
		hash, err = sweepHash(base, l, points, measures)
		if err != nil {
			return nil, fmt.Errorf("pipeline: sweep: %w", err)
		}
		if ckOpts.Resume {
			prior, err = loadCheckpoint(ckOpts.Path, hash, len(points), report)
			if err != nil {
				return nil, fmt.Errorf("pipeline: sweep: %w", err)
			}
			if prior != nil {
				for i, rep := range prior.completed {
					reports[i] = rep
				}
			}
		}
	}

	// Anchor: the first point, solved cold (or restored from the
	// checkpoint, which stores the solution's exact bits; or reused from
	// the session's anchor stage, where a previous sweep left the same
	// bits). Its solution seeds the warm start of every remaining point.
	anchorKey := encodePoint(points[0])
	var anchorPi []float64
	if prior != nil && reports[0] != nil && len(prior.anchorPi) == base.N {
		anchorPi = prior.anchorPi
	} else {
		ar, aerr := s.st.anchor(anchorKey).get(ctx, "pipeline.sweep", func() (anchorResult, error) {
			rep, pi, err := solvePoint(0, base, 0, nil)
			if err != nil {
				return anchorResult{}, err
			}
			return anchorResult{rep: rep, pi: pi}, nil
		})
		if aerr != nil {
			return nil, fmt.Errorf("pipeline: sweep: point 0: %w", attribute(aerr, 0))
		}
		reports[0] = ar.rep.clone()
		anchorPi = ar.pi
	}
	if ckOpts != nil {
		ck = newCkWriter(*ckOpts, hash, len(points), anchorPi, prior)
		if err := ck.completed(0, reports[0]); err != nil {
			return nil, fmt.Errorf("pipeline: sweep: point 0: %w", err)
		}
	}

	// storeKey content-addresses one non-anchor point's report: the spec,
	// the anchor that seeded its warm start, and the point's exact bits.
	storeKey := func(i int) ResultKey {
		return ResultKey{Spec: s.st.hash, Anchor: anchorKey, Point: encodePoint(points[i])}
	}

	// Result-store prefill: points the store already holds are restored
	// like checkpointed ones (and recorded to the checkpoint, so a resume
	// file stays complete).
	if s.cfg.Store != nil {
		for i := 1; i < len(points); i++ {
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

	// finish publishes one completed point: the report slot, the result
	// store, then the checkpoint writer (whose write failures are strict —
	// an unwritable checkpoint fails the point rather than silently losing
	// resumability).
	finish := func(i int, rep *Phase2Report) error {
		reports[i] = rep
		if s.cfg.Store != nil {
			s.cfg.Store.Put(storeKey(i), rep)
		}
		if ck != nil {
			return ck.completed(i, rep)
		}
		return nil
	}

	rest := len(points) - 1
	if rest == 0 {
		return reports, nil
	}

	laneWidth := s.cfg.LaneWidth
	if laneWidth <= 0 {
		laneWidth = DefaultLaneWidth
	}
	if laneWidth > rest {
		laneWidth = rest
	}
	if spec.Solve.Omega != 0 {
		// The batched kernels always run the scheme-default damping; a
		// custom Omega needs the per-point path, where SteadyState
		// honors it.
		laneWidth = 1
	}
	if laneWidth > 1 {
		return s.sweepBatched(base, measures, points, reports, anchorPi, laneWidth,
			report, attribute, mkSolve, forcedCE, escalateLane, finish)
	}

	workers := s.cfg.Workers
	if workers <= 1 || rest == 1 {
		// Sequential per-point path: reuse the work chain for every point.
		for i := 1; i < len(points); i++ {
			if reports[i] != nil {
				continue // restored from the checkpoint or the store
			}
			rep, _, err := solvePoint(0, base, i, anchorPi)
			if err != nil {
				return nil, fmt.Errorf("pipeline: sweep: point %d: %w", i, attribute(err, i))
			}
			if err := finish(i, rep); err != nil {
				return nil, fmt.Errorf("pipeline: sweep: point %d: %w", i, err)
			}
		}
		return reports, nil
	}

	// Parallel per-point path: each worker owns a private clone of the
	// built chain and rebinds it per point. Points are claimed in ascending
	// order; any failure wins by lowest point index so the reported error
	// matches the sequential run's.
	if workers > rest {
		workers = rest
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		next    = 1
		failIdx = len(points)
		failErr error
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		for failErr == nil && next < len(points) {
			i := next
			next++
			if reports[i] != nil {
				continue // restored from the checkpoint or the store
			}
			return i
		}
		return -1
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if failErr == nil || i < failIdx {
			failIdx, failErr = i, err
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chain := base.Clone()
			for {
				i := claim()
				if i < 0 {
					return
				}
				rep, _, err := solvePoint(w, chain, i, anchorPi)
				if err != nil {
					fail(i, attribute(err, i))
					return
				}
				if err := finish(i, rep); err != nil {
					fail(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failErr != nil {
		return nil, fmt.Errorf("pipeline: sweep: point %d: %w", failIdx, failErr)
	}
	return reports, nil
}

// sweepBatched solves the non-anchor points of a sweep through the batched
// kernel: points[1:] are packed in index order into chunks of laneWidth
// lanes, each chunk is one ctmc.SolveBatchLanes call seeded from the
// anchor solution, and the chunk's reports are then evaluated in lane
// order (the measure evaluation rebinds the chain to each point's rates,
// as the per-point path does). Chunks are independent — every lane seeds
// from the anchor, never from a chunk-mate — so chunk-level workers change
// nothing but wall-clock time, and a failure is attributed to the lowest
// failed global point index, matching the per-point paths. Lanes that fail
// to converge escalate solo (a lane's base failure is bit-identical to the
// solo base attempt), and chunks whose every lane was restored from a
// checkpoint are skipped outright.
func (s *Session) sweepBatched(base *ctmc.CTMC, measures []measure.Measure, points [][]float64,
	reports []*Phase2Report, anchorPi []float64, laneWidth int,
	report func(map[string]float64) *Phase2Report, attribute func(error, int) error,
	mkSolve func([]float64) ctmc.SolveOptions,
	forcedCE func(*ctmc.CTMC, []float64) (*ctmc.ConvergenceError, error),
	escalateLane func(*ctmc.CTMC, int, []float64, *ctmc.ConvergenceError, bool) ([]float64, *ctmc.SolveTrace, error),
	finish func(int, *Phase2Report) error) ([]*Phase2Report, error) {

	ctx := s.cfg.Ctx
	escalation := s.st.spec.Solve.Escalation

	// translate maps a SolveBatch failure of the chunk at offset off to
	// its global point index and the unwrapped per-lane error.
	translate := func(err error, off int) (int, error) {
		idx := off
		var bpe *ctmc.BatchPointError
		if errors.As(err, &bpe) {
			idx = off + bpe.Point
			err = bpe.Err
		}
		return idx, attribute(err, idx)
	}

	// solveChunk solves points[off:off+width] on the given chain and fills
	// their reports. It returns the failed global point index and error.
	solveChunk := func(chain *ctmc.CTMC, off, width int) (int, error) {
		if err := fault.Check(ctx, "core.sweep", off, -1); err != nil {
			return off, err
		}
		pis, laneErrs, err := chain.SolveBatchLanes(points[off:off+width], ctmc.BatchOptions{Solve: mkSolve(anchorPi)})
		if err != nil {
			return translate(err, off)
		}
		for lane := 0; lane < width; lane++ {
			i := off + lane
			pi := pis[lane]
			var trace *ctmc.SolveTrace
			lerr := laneErrs[lane]
			forced := false
			if lerr == nil && faultinject.Fire(faultinject.SiteSweepNonconverge, i) {
				ce, ferr := forcedCE(chain, anchorPi)
				if ferr != nil {
					return i, ferr
				}
				lerr = ce
				forced = true
			}
			if lerr != nil {
				var ce *ctmc.ConvergenceError
				if escalation == ctmc.EscalateLadder && errors.As(lerr, &ce) {
					pi, trace, lerr = escalateLane(chain, i, anchorPi, ce, forced)
				}
			}
			if lerr != nil {
				return i, attribute(lerr, i)
			}
			if err := chain.Rebind(points[i]); err != nil {
				return i, err
			}
			values, err := measure.EvalAll(measures, chain, pi)
			if err != nil {
				return i, err
			}
			rep := report(values)
			rep.Trace = trace
			if err := finish(i, rep); err != nil {
				return i, err
			}
		}
		return 0, nil
	}

	// runChunk is solveChunk under the chunk worker's panic guard; the
	// injection sites of the chunk's points are consulted up front so an
	// armed SiteSweepPoint trigger fires in batched mode too.
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

	nChunks := (len(points) - 2 + laneWidth) / laneWidth // points[1:] in chunks of laneWidth
	chunkAt := func(ch int) (int, int) {
		off := 1 + ch*laneWidth
		width := laneWidth
		if off+width > len(points) {
			width = len(points) - off
		}
		return off, width
	}
	chunkNeeded := func(off, width int) bool {
		for k := 0; k < width; k++ {
			if reports[off+k] == nil {
				return true
			}
		}
		return false
	}

	workers := s.cfg.Workers
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		for ch := 0; ch < nChunks; ch++ {
			off, width := chunkAt(ch)
			if !chunkNeeded(off, width) {
				continue // every lane restored from the checkpoint
			}
			if idx, err := runChunk(0, base, off, width); err != nil {
				return nil, fmt.Errorf("pipeline: sweep: point %d: %w", idx, err)
			}
		}
		return reports, nil
	}

	// Chunk-parallel path: each worker owns a private clone; chunks are
	// claimed in ascending order and the lowest failed point index wins,
	// matching the sequential chunk loop.
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
			if !chunkNeeded(off, width) {
				continue // every lane restored from the checkpoint
			}
			return ch
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chain := base.Clone()
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
		}(w)
	}
	wg.Wait()
	if failErr != nil {
		return nil, fmt.Errorf("pipeline: sweep: point %d: %w", failIdx, failErr)
	}
	return reports, nil
}
