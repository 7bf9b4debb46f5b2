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
// of Config.LaneWidth lanes (one point per call when LaneWidth is 1), and
// every lane runs exactly the floating-point operations of a one-lane
// SteadyState solve at its point. Each point's result equals a fresh
// generate+build+solve of the same model at that point's rates, up to the
// solver tolerance (the rebound generator matrix itself is bit-identical
// to a freshly built one). Anchors are staged per session state, so a
// second sweep from the same anchor reuses its solution, and a Config
// Store memoizes the non-anchor reports under SpecHash + anchor + point.
//
// Failure handling is deterministic at any worker count:
//
//   - A solver failure is attributed to its sweep point: the returned
//     error names the lowest failed point index (the one a sequential
//     pass over the points would hit first), and an unwrapped
//     *ctmc.ConvergenceError carries the point index and its rate vector.
//   - With the spec's Solve.Escalation set to ctmc.EscalateLadder, a
//     point that fails to converge is retried through the deterministic
//     escalation ladder (see ctmc.EscalateLadder); a recovered point's
//     report carries the attempt trace in Phase2Report.Trace. A failed
//     lane escalates alone: its base failure is bit-identical to a
//     one-lane base attempt, and the ladder re-solves the point from
//     rung 1.
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
	// ladder itself so that the anchor and every batched lane share one
	// escalation path.
	mkSolve := func(warm []float64) ctmc.SolveOptions {
		solve := spec.Solve
		solve.Ctx = ctx
		solve.WarmStart = warm
		solve.Escalation = ctmc.EscalateNever
		return solve
	}

	// resolvePoint completes point i from its base solve — the anchor's
	// one-lane solve or a batched lane, the two are bit-identical — on
	// chain: it rebinds chain to the point's rates, lets an injected
	// SiteSweepNonconverge trigger fail a converged base solve (the hook
	// the escalation property tests use), runs the escalation ladder on a
	// convergence failure when the spec asks for it, and evaluates the
	// measures. The ladder's attempt 0 records the base failure exactly as
	// ctmc.SteadyStateTraced would, so the ladder position is a pure
	// function of the point's input, never of how lanes were packed. It
	// returns the report and the solution vector.
	resolvePoint := func(chain *ctmc.CTMC, i int, warm, pi []float64, err error) (*Phase2Report, []float64, error) {
		if rerr := chain.Rebind(points[i]); rerr != nil {
			return nil, nil, rerr
		}
		action := "base"
		if err == nil && faultinject.Fire(faultinject.SiteSweepNonconverge, i) {
			resolved, rerr := chain.ResolveSolve(mkSolve(warm))
			if rerr != nil {
				return nil, nil, rerr
			}
			err = &ctmc.ConvergenceError{Residual: 1, Tolerance: resolved.Tolerance, Sweep: resolved.Sweep, Point: -1}
			action = "forced-nonconvergence"
		}
		var trace *ctmc.SolveTrace
		if err != nil {
			var ce *ctmc.ConvergenceError
			if spec.Solve.Escalation != ctmc.EscalateLadder || !errors.As(err, &ce) {
				return nil, nil, err
			}
			if pi, trace, err = chain.EscalateFrom(mkSolve(warm), action, ce); err != nil {
				return nil, nil, err
			}
		}
		values, err := measure.EvalAll(measures, chain, pi)
		if err != nil {
			return nil, nil, err
		}
		rep := report(values)
		rep.Trace = trace
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
			// The anchor solves under the sweep worker's panic guard, so a
			// crash (or an injected fault keyed by its index) surfaces as
			// a *fault.WorkerPanicError. The pool name predates the move to
			// this package and is kept stable — it is part of the
			// attribution contract callers match on.
			var ar anchorResult
			err := fault.Guard("core.sweep", 0, "point 0", func() error {
				faultinject.MaybePanic(faultinject.SiteSweepPoint, 0)
				if err := fault.Check(ctx, "core.sweep", 0, -1); err != nil {
					return err
				}
				if err := base.Rebind(points[0]); err != nil {
					return err
				}
				pi, err := base.SteadyState(mkSolve(nil))
				ar.rep, ar.pi, err = resolvePoint(base, 0, nil, pi, err)
				return err
			})
			if err != nil {
				return anchorResult{}, err
			}
			return ar, nil
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
	return s.sweepBatched(base, points, reports, anchorPi, laneWidth, mkSolve(anchorPi), attribute, resolvePoint, finish)
}

// sweepBatched solves the non-anchor points of a sweep through the batched
// kernel: points[1:] are packed in index order into chunks of laneWidth
// lanes — one point per chunk at laneWidth 1 — each chunk is one
// ctmc.SolveBatchLanes call seeded from the anchor solution, and the
// chunk's lanes are then completed by resolvePoint in lane order. Chunks
// are independent — every lane seeds from the anchor, never from a
// chunk-mate — so chunk-level workers change nothing but wall-clock time,
// and a failure is attributed to the lowest failed global point index.
// Lanes that fail to converge escalate one at a time (a lane's base
// failure is bit-identical to the one-lane base attempt), and chunks whose
// every lane was restored from a checkpoint or the result store are
// skipped outright.
func (s *Session) sweepBatched(base *ctmc.CTMC, points [][]float64, reports []*Phase2Report,
	anchorPi []float64, laneWidth int, solve ctmc.SolveOptions, attribute func(error, int) error,
	resolvePoint func(*ctmc.CTMC, int, []float64, []float64, error) (*Phase2Report, []float64, error),
	finish func(int, *Phase2Report) error) ([]*Phase2Report, error) {

	ctx := s.cfg.Ctx

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
		pis, laneErrs, err := chain.SolveBatchLanes(points[off:off+width], ctmc.BatchOptions{Solve: solve})
		if err != nil {
			return translate(err, off)
		}
		for lane := 0; lane < width; lane++ {
			i := off + lane
			rep, _, err := resolvePoint(chain, i, anchorPi, pis[lane], laneErrs[lane])
			if err != nil {
				return i, attribute(err, i)
			}
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

	// Each worker solves on its own chain — worker 0 on base, which the
	// anchor no longer needs, the others on private clones. Chunks are
	// claimed in ascending order and the lowest failed point index wins,
	// so the outcome is the same at every worker count.
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
			if !chunkNeeded(off, width) {
				continue // every lane restored from the checkpoint or the store
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
	// Clone before any worker starts: worker 0 rebinds base.
	chains := []*ctmc.CTMC{base}
	for len(chains) < workers {
		chains = append(chains, base.Clone())
	}
	for w, chain := range chains {
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
