package ctmc

import (
	"fmt"
	"math"
)

// BatchOptions tunes SolveBatch.
type BatchOptions struct {
	// Solve is the shared solver configuration: tolerance and iteration
	// bound are resolved exactly as SteadyState resolves them, and every
	// lane starts from the uniform distribution, as a SteadyState solve
	// does.
	Solve SolveOptions
	// LaneTolerances optionally overrides Solve.Tolerance per lane (one
	// positive value per point, or nil). Lanes then converge — and
	// deactivate — at different sweeps, which the property tests use to
	// pin the deactivation determinism.
	LaneTolerances []float64
}

// BatchPointError attributes a SolveBatch failure to one point of the
// batch. Point indexes the points slice passed to SolveBatch;
// pipeline.Session.Sweep translates it to the global sweep-point index. When
// several lanes fail, the lowest lane wins, matching the error a
// sequential per-point loop over the same points would hit first.
type BatchPointError struct {
	Point int
	Err   error
}

// Error implements the error interface.
func (e *BatchPointError) Error() string {
	return fmt.Sprintf("ctmc: batch point %d: %v", e.Point, e.Err)
}

// Unwrap exposes the per-lane failure (e.g. a *ConvergenceError or a
// *RebindError) to errors.Is/As.
func (e *BatchPointError) Unwrap() error { return e.Err }

// SolveBatch computes the steady-state distribution of the chain at K
// rate-slot assignments in one pass: the structural skeleton (bottom
// component, incoming CSR indices) is shared across all points, the K
// per-point rate vectors are gathered lane-interleaved from the chain's
// recorded contribution terms, and the eight-lane kernel iterates all
// lanes simultaneously — each pass over the CSR indices feeds every lane,
// so the index traffic and loop overhead are paid once per group of eight.
//
// out[k] is bit-identical to the sequential chain
//
//	clone := c.Clone(); clone.Rebind(points[k]); clone.SteadyState(opts.Solve)
//
// at any lane count: the gathered rates are the contribution-term sums
// Rebind computes, in the same order, SteadyState runs the same kernel on
// a one-lane batch, and lanes never mix, so a point's result does not
// depend on which points share its batch. Per-lane residuals are tracked
// independently and a lane deactivates (its column is frozen and copied
// out) after exactly the sweep where a one-lane solve would return. The
// chain's own rate state is not touched: lanes are computed from the
// contribution terms, so c still carries whatever rates the last
// Build/Rebind wrote.
//
// On failure the lowest failed lane is reported as a *BatchPointError
// wrapping that lane's error, with ConvergenceError carrying the lane
// index and rate vector.
func (c *CTMC) SolveBatch(points [][]float64, opts BatchOptions) ([][]float64, error) {
	out, laneErrs, err := c.SolveBatchLanes(points, opts)
	if err != nil {
		return nil, err
	}
	for k, e := range laneErrs {
		if e != nil {
			return nil, &BatchPointError{Point: k, Err: e}
		}
	}
	return out, nil
}

// SolveBatchLanes is SolveBatch with per-lane failure reporting: laneErrs
// has one entry per point (nil on success, the lane's *ConvergenceError —
// already stamped with the lane index and rate vector — on failure), and
// the converged lanes' results are returned even when other lanes failed,
// so a sweep can publish the converged lanes below a failed one instead
// of discarding the whole batch. The batch-level error is reserved for
// failures of the batch as a whole: invalid input, cancellation, and
// worker panics; when it is non-nil, out and laneErrs are nil.
func (c *CTMC) SolveBatchLanes(points [][]float64, opts BatchOptions) (out [][]float64, laneErrs []error, err error) {
	K := len(points)
	if K == 0 {
		return nil, nil, nil
	}
	if c.numSlots == 0 {
		return nil, nil, fmt.Errorf("ctmc: solve batch: chain has no rate slots; use SteadyState per point")
	}
	for k, pt := range points {
		if len(pt) != c.numSlots {
			return nil, nil, &BatchPointError{Point: k, Err: &RebindError{Want: c.numSlots, Got: len(pt)}}
		}
		for i, v := range pt {
			if !(v > 0) || math.IsInf(v, 0) {
				return nil, nil, &BatchPointError{Point: k, Err: &RebindError{Slot: i + 1, Value: v}}
			}
		}
	}
	if len(opts.LaneTolerances) != 0 && len(opts.LaneTolerances) != K {
		return nil, nil, fmt.Errorf("ctmc: solve batch: %d lane tolerances for %d points", len(opts.LaneTolerances), K)
	}
	solve := solveDefaults(opts.Solve)
	tol := make([]float64, K)
	for k := range tol {
		tol[k] = solve.Tolerance
		if opts.LaneTolerances != nil {
			if t := opts.LaneTolerances[k]; !(t > 0) || math.IsInf(t, 0) {
				return nil, nil, fmt.Errorf("ctmc: solve batch: lane %d tolerance %v is not positive and finite", k, t)
			}
			tol[k] = opts.LaneTolerances[k]
		}
	}

	plan, perr := c.ensurePlan()
	if perr != nil {
		return nil, nil, perr
	}
	out = make([][]float64, K)
	laneErrs = make([]error, K)

	// An absorbing single state gets all the probability, in every lane.
	if len(plan.target) == 1 {
		for k := range out {
			pi := make([]float64, c.N)
			pi[plan.target[0]] = 1
			out[k] = pi
		}
		return out, laneErrs, nil
	}

	start := uniformStart(len(plan.target))

	// Larger batches run as consecutive eight-lane groups in index order;
	// lanes never mix, so the grouping changes no bits.
	for off := 0; off < K; off += batchLanes {
		hi := min(off+batchLanes, K)
		res, err := c.fillBatch(plan, points[off:hi]).gaussSeidelBatch(solve, tol[off:hi], start)
		if err != nil {
			return nil, nil, err
		}
		for i, r := range res {
			k := off + i
			if r.err != nil {
				r.err.Point = k
				r.err.Params = append([]float64(nil), points[k]...)
				laneErrs[k] = r.err
				continue
			}
			pi := make([]float64, c.N)
			for j, s := range plan.target {
				pi[s] = r.x[j]
			}
			out[k] = pi
		}
	}
	return out, laneErrs, nil
}

// laneResult is one live lane's outcome: its converged column and solve
// statistics, or its convergence failure (never both).
type laneResult struct {
	x   []float64
	st  solveStats
	err *ConvergenceError
}

// batchLanes is the one width of the batched solver: eight float64 lanes
// interleave into exactly one 64-byte cache line, and the vectorized
// amd64 kernel sweeps each half of it that holds a live lane as one
// 4-double vector.
const batchLanes = 8

// batchComponent is the recurrent component in local coordinates, in
// eight lanes: the balance equations pi_j * exit_j = sum_{i -> j} pi_i *
// q_ij restricted to the component, with the incoming adjacency flattened
// CSR-style — the incoming edges of local state j are inFrom[inStart[j]:
// inStart[j+1]]. The index structure is shared across lanes while rates,
// exit rates, and iterates are stored lane-interleaved, structure-of-arrays
// style — the value of lane k at row j (or in-edge e) lives at [j*8+k]
// ([e*8+k]) — so one pass over the indices streams all lanes through
// contiguous memory. Lanes 0..live-1 carry points; the rest are pad lanes,
// which copy lane 0's rates (so allPos and the vectorized path are
// unaffected), start frozen, and are never reported.
type batchComponent struct {
	n, live int
	inStart []int32
	inFrom  []int32
	rate    []float64 // lane-interleaved in-edge rates
	exit    []float64 // lane-interleaved exit rates
	// invExit is the lane-interleaved 1/exit (0 where exit is 0), computed
	// once per fill: the sweeps' per-row division is a multiplication by
	// the reciprocal.
	invExit []float64
	allPos  bool // every row of every lane has exit > 0
}

// newBatch allocates an empty eight-lane batch over the plan's component
// skeleton with the given number of live lanes.
func newBatch(plan *solvePlan, live int) *batchComponent {
	return &batchComponent{
		n:       len(plan.target),
		live:    live,
		inStart: plan.inStart,
		inFrom:  plan.inFrom,
		rate:    make([]float64, len(plan.inFrom)*batchLanes),
		exit:    make([]float64, len(plan.target)*batchLanes),
		invExit: make([]float64, len(plan.target)*batchLanes),
		allPos:  true,
	}
}

// fillCurrent gathers the chain's current rates — the Rows and Exit that
// Build or the last Rebind wrote — into a one-lane batch whose pad lanes
// copy lane 0: the batch a SteadyState solve runs. The traversal replays
// the plan's fill order (target rows in order, entries in column-ascending
// order), and exits are the chain's own, so a chain assembled by hand with
// no contribution terms solves too.
func (c *CTMC) fillCurrent(plan *solvePlan) *batchComponent {
	bc := newBatch(plan, 1)
	t := 0
	for li, s := range plan.target {
		for _, e := range c.Rows[s] {
			if pos := plan.fillPos[t]; pos >= 0 {
				rs := bc.rate[int(pos)*batchLanes : int(pos+1)*batchLanes]
				for k := range rs {
					rs[k] = e.Rate
				}
			}
			t++
		}
		exit, inv := c.Exit[s], 0.0
		if exit > 0 {
			inv = 1 / exit
		} else {
			bc.allPos = false
		}
		for k := 0; k < batchLanes; k++ {
			bc.exit[li*batchLanes+k] = exit
			bc.invExit[li*batchLanes+k] = inv
		}
	}
	return bc
}

// fillBatch gathers up to batchLanes per-point rate vectors into the
// plan's skeleton by re-summing each component entry's contribution terms
// per lane — the identical sequence of float additions Rebind replays —
// and accumulating each lane's exit rates over the row's entries in the
// same column-ascending order Rebind uses, so every lane's rates and exits
// are bit-identical to a Rebind of the whole chain at that lane's values.
// Pad lanes are filled from points[0].
func (c *CTMC) fillBatch(plan *solvePlan, points [][]float64) *batchComponent {
	var lanes [batchLanes][]float64
	for k := range lanes {
		lanes[k] = points[0]
	}
	copy(lanes[:], points)
	bc := newBatch(plan, len(points))
	t := 0
	for li, s := range plan.target {
		gi := plan.rowEntryBase[li]
		for range c.Rows[s] {
			lo, hi := c.termStart[gi], c.termStart[gi+1]
			pos := plan.fillPos[t]
			for lane, vals := range lanes {
				sum := 0.0
				for ti := lo; ti < hi; ti++ {
					tm := c.terms[ti]
					if tm.slot > 0 {
						sum += vals[tm.slot-1] * tm.coeff
					} else {
						sum += tm.coeff
					}
				}
				if pos >= 0 {
					bc.rate[int(pos)*batchLanes+lane] = sum
				}
				bc.exit[li*batchLanes+lane] += sum
			}
			gi++
			t++
		}
		for lane := 0; lane < batchLanes; lane++ {
			if e := bc.exit[li*batchLanes+lane]; e > 0 {
				bc.invExit[li*batchLanes+lane] = 1 / e
			} else {
				bc.allPos = false
			}
		}
	}
	return bc
}

// spread replicates the shared start vector into every lane's column.
func (bc *batchComponent) spread(start []float64) []float64 {
	x := make([]float64, bc.n*batchLanes)
	for j := 0; j < bc.n; j++ {
		for k := 0; k < batchLanes; k++ {
			x[j*batchLanes+k] = start[j]
		}
	}
	return x
}

// padDone is the initial deactivation mask: live lanes run, pad lanes are
// frozen from the first sweep.
func (bc *batchComponent) padDone() []bool {
	done := make([]bool, batchLanes)
	for k := bc.live; k < batchLanes; k++ {
		done[k] = true
	}
	return done
}

// column copies lane k's column out of the iterate slab.
func (bc *batchComponent) column(x []float64, k int) []float64 {
	col := make([]float64, bc.n)
	for j := range col {
		col[j] = x[j*batchLanes+k]
	}
	return col
}

// gaussSeidelBatch runs the sequential Gauss-Seidel sweep on every lane of
// the batch at once: rows are visited in order and each row update reads
// the in-place column, so updates feed forward within the sweep, per lane.
// Lanes never mix — the same inflow summation order, the same division by
// the exit rate, the same residual and normalization arithmetic in every
// lane — so a lane's converged column is bit-identical whichever lanes
// share its batch, a one-lane SteadyState batch included. A lane's column
// is copied out after the sweep where its residual first drops below its
// tolerance; from then on the lane stays frozen in the eight-lane slab
// with its bookkeeping (normalization, residual check) skipped, like the
// pad lanes. The batch is never narrowed or compacted: the vectorized
// kernel instead skips each half of the slab whose four lanes have all
// frozen (see step). It returns one result per live lane. SteadyState
// calls it on a one-lane batch, SolveBatchLanes once per group of at most
// batchLanes points.
func (bc *batchComponent) gaussSeidelBatch(solve SolveOptions, tol []float64, start []float64) ([]laneResult, error) {
	K := bc.live
	res := make([]laneResult, K)
	cancel := cancelChan(solve.Ctx)
	x := bc.spread(start)
	done := bc.padDone()
	remaining := K
	delta := make([]float64, batchLanes)
	sums := make([]float64, batchLanes)
	for iter := 0; iter < solve.MaxIterations && remaining > 0; iter++ {
		if err := pollSolve(solve.Ctx, cancel, iter); err != nil {
			return nil, err
		}
		bc.step(x, delta, sums, done)
		for k := 0; k < K; k++ {
			if done[k] {
				continue
			}
			if sums[k] <= 0 {
				res[k].err = &ConvergenceError{Iterations: iter + 1, Residual: delta[k], Tolerance: tol[k], Point: -1}
				done[k] = true
				remaining--
				continue
			}
			if delta[k] < tol[k] {
				res[k].x = bc.column(x, k)
				res[k].st = solveStats{Iterations: iter + 1, Residual: delta[k]}
				done[k] = true
				remaining--
			}
		}
	}
	for k := 0; k < K; k++ {
		if !done[k] {
			res[k].err = &ConvergenceError{Iterations: solve.MaxIterations, Residual: delta[k], Tolerance: tol[k], Point: -1}
		}
	}
	return res, nil
}

// step runs one Gauss-Seidel iteration of every live lane: one sweep,
// then each lane's column normalized by its row-order sum — the
// iteration body of gaussSeidelBatch. On return delta[k] is live lane k's
// residual and sums[k] its column sum before normalization; a lane whose
// sum is not positive is left unscaled for the caller to fail. Frozen
// lanes keep their columns bit for bit, and their delta and sums entries
// are not meaningful.
//
// sweepGS8Fast may run the sweep in the vectorized amd64 kernel, which
// sweeps only the halves of the slab that hold a live lane and fuses the
// sums into the sweep; scaleGS8Fast rescales those halves only. Their
// multiplies and adds are the same IEEE-754 double operations the scalar
// sweepGS8, laneSums and scaleLanes perform, in the same per-lane order,
// so the results are bit-identical (pinned by a test that runs both).
func (bc *batchComponent) step(x, delta, sums []float64, done []bool) {
	clear(delta)
	if !bc.sweepGS8Fast(x, delta, sums, done) {
		bc.sweepGS8(x, delta, done)
		bc.laneSums(x, sums)
	}
	var scale [batchLanes]float64
	for k := range scale {
		scale[k] = 1
		if !done[k] && !(sums[k] <= 0) {
			scale[k] = 1 / sums[k]
		}
	}
	if !bc.scaleGS8Fast(x, &scale, done) {
		bc.scaleLanes(x, scale[:])
	}
}

// laneSums accumulates every lane's row-order sum of the iterate slab in
// one pass over all eight lanes: each lane gets its own sequential
// accumulator chain over rows 0..n-1 from +0, the canonical normalization
// order, so the per-lane sums are bit-identical to eight strided per-lane
// walks — at one slab traversal instead of eight. It is the scalar path's
// normalization and the reference the vectorized kernel's fused sums are
// pinned to.
func (bc *batchComponent) laneSums(x, sums []float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for j := 0; j < bc.n; j++ {
		xs := x[j*8 : j*8+8 : j*8+8]
		s0 += xs[0]
		s1 += xs[1]
		s2 += xs[2]
		s3 += xs[3]
		s4 += xs[4]
		s5 += xs[5]
		s6 += xs[6]
		s7 += xs[7]
	}
	sums[0], sums[1], sums[2], sums[3] = s0, s1, s2, s3
	sums[4], sums[5], sums[6], sums[7] = s4, s5, s6, s7
}

// scaleLanes multiplies every lane's column by its scale factor in one
// pass over all eight lanes of the iterate slab: the scalar path's
// rescale and the reference for scaleGS8Fast, which visits only the live
// halves. Callers pass exactly 1 for lanes that must not move (x*1 is
// bit-identical for every finite x), so the pass needs no per-element
// branching.
func (bc *batchComponent) scaleLanes(x, scale []float64) {
	s0, s1, s2, s3 := scale[0], scale[1], scale[2], scale[3]
	s4, s5, s6, s7 := scale[4], scale[5], scale[6], scale[7]
	for j := 0; j < bc.n; j++ {
		xs := x[j*8 : j*8+8 : j*8+8]
		xs[0] *= s0
		xs[1] *= s1
		xs[2] *= s2
		xs[3] *= s3
		xs[4] *= s4
		xs[5] *= s5
		xs[6] *= s6
		xs[7] *= s7
	}
}

// sweepGS8 is the scalar eight-lane Gauss-Seidel kernel, the reference
// the vectorized kernel is pinned to and the fallback where it is
// unavailable: the row's in-edges are traversed once with eight scalar
// accumulators, so the CSR index loads, the bounds checks, and the loop
// control are paid once for all lanes (the lane stride of 8 float64s is
// exactly one 64-byte cache line), and the eight independent accumulator
// chains keep the FP units busy where a one-lane kernel would stall on
// one add chain. The accumulation runs for frozen lanes too — it rides in the
// shared traversal for free — but the per-lane epilogue (the divide, the
// residual, the write) is skipped for them, so their columns stay frozen
// at the values of their convergence sweep and no live lane is affected.
func (bc *batchComponent) sweepGS8(x, delta []float64, done []bool) {
	n := bc.n
	var dead [8]bool
	copy(dead[:], done)
	for j := 0; j < n; j++ {
		base := j * 8
		lo, hi := int(bc.inStart[j]), int(bc.inStart[j+1])
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for e := lo; e < hi; e++ {
			fb := int(bc.inFrom[e]) * 8
			xs := x[fb : fb+8 : fb+8]
			rs := bc.rate[e*8 : e*8+8 : e*8+8]
			a0 += xs[0] * rs[0]
			a1 += xs[1] * rs[1]
			a2 += xs[2] * rs[2]
			a3 += xs[3] * rs[3]
			a4 += xs[4] * rs[4]
			a5 += xs[5] * rs[5]
			a6 += xs[6] * rs[6]
			a7 += xs[7] * rs[7]
		}
		acc := [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for k := 0; k < 8; k++ {
			if dead[k] || bc.exit[base+k] <= 0 {
				continue
			}
			next := acc[k] * bc.invExit[base+k]
			d := math.Abs(next - x[base+k])
			if m := math.Max(next, 1e-300); d > delta[k]*m*residualGuard {
				if rel := d / m; rel > delta[k] {
					delta[k] = rel
				}
			}
			x[base+k] = next
		}
	}
}
