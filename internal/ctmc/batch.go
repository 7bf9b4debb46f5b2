package ctmc

import (
	"fmt"
	"math"
)

// BatchPointError attributes a batched-solve failure to one point of the
// batch: SolveBatchLanes reports an invalid point with it. Point indexes
// the points slice passed to the solve; pipeline.Session.Sweep translates
// it to the global sweep-point index. When several points fail, the
// lowest wins, matching the error a sequential per-point loop over the
// same points would hit first.
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

// SolveBatchLanes computes the steady-state distribution of the chain at
// K rate-slot assignments in one pass: the structural skeleton (bottom
// component, incoming CSR indices) is shared across all points, the K
// per-point rate vectors are gathered lane-interleaved from the chain's
// recorded contribution terms, and the four-lane kernel iterates all
// lanes simultaneously — each pass over the CSR indices feeds every lane,
// so the index traffic and loop overhead are paid once per group of four.
// Tolerance and iteration bound are resolved from solve exactly as
// SteadyStateTraced resolves them, and every lane starts from the
// uniform distribution, as a solo solve does.
//
// At any lane count, out[k] is bit-identical to SteadyStateTraced(solve)
// on the chain Build makes of c's system with every rate slot bound to
// the constant points[k]: the gathered rates are the
// contribution-term sums Build accumulates, in the same order,
// SteadyStateTraced runs the same kernel on a one-lane batch, and lanes
// never mix, so a point's result does not depend on which points share
// its batch. Per-lane residuals are tracked independently and a lane
// deactivates (its column is frozen and copied out) after exactly the
// sweep where a one-lane solve would return, so points that need
// different sweep counts leave the group at different sweeps. The chain
// itself is only read, so any number of goroutines may solve it at once.
//
// Failures are reported per lane: laneErrs has one entry per point (nil
// on success, the lane's *ConvergenceError — already stamped with the
// lane index and rate vector — on failure), and the converged lanes'
// results are returned even when other lanes failed, so a sweep can
// publish the converged lanes below a failed one instead of discarding
// the whole batch. The batch-level error is reserved for failures of the
// batch as a whole: invalid input, a chain with no single reachable
// bottom component, and cancellation; when it is non-nil, out and
// laneErrs are nil. The call runs on the caller's goroutine; it starts
// none.
func (c *CTMC) SolveBatchLanes(points [][]float64, solve SolveOptions) (out [][]float64, laneErrs []error, err error) {
	K := len(points)
	if K == 0 {
		return nil, nil, nil
	}
	if c.numSlots == 0 {
		return nil, nil, fmt.Errorf("ctmc: solve batch: chain has no rate slots; solve it once with SteadyStateTraced")
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
	solve = solveDefaults(solve)

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

	// Larger batches run as consecutive four-lane groups in index order;
	// lanes never mix, so the grouping changes no bits.
	for off := 0; off < K; off += BatchLanes {
		hi := min(off+BatchLanes, K)
		res, err := c.fillBatch(plan, points[off:hi]).gaussSeidelBatch(solve)
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

// BatchLanes is the one width of the batched solver: four float64 lanes
// interleave into one 32-byte row, exactly one AVX register, so the
// vectorized amd64 kernel sweeps a whole group in one pass. A call with
// more than four points runs as several groups in turn; the pipeline's
// sweep caps its chunks at one group, so that its worker pool spreads
// the groups over cores.
const BatchLanes = 4

// batchComponent is the recurrent component in local coordinates, in
// four lanes: the balance equations pi_j * exit_j = sum_{i -> j} pi_i *
// q_ij restricted to the component, with the incoming adjacency flattened
// CSR-style — the incoming edges of local state j are inOff[inStart[j]:
// inStart[j+1]], each its source row's element offset in the iterate
// slab. The index structure is shared across lanes while rates, inverse
// exit rates, and iterates are stored lane-interleaved, structure-of-arrays
// style — the value of lane k at row j (or in-edge e) lives at [j*4+k]
// ([e*4+k]) — so one pass over the indices streams all lanes through
// contiguous memory. Lanes 0..live-1 carry points; the rest are pad lanes,
// which copy lane 0's rates (so allPos and the vectorized path are
// unaffected), start frozen, and are never reported.
type batchComponent struct {
	n, live int
	inStart []int32
	inOff   []int32
	rate    []float64 // lane-interleaved in-edge rates
	// invExit is the lane-interleaved 1/exit, computed once per fill: the
	// sweeps' per-row division is a multiplication by the reciprocal. It
	// is 0 where the exit rate is not positive (or so large that its
	// reciprocal is 0), and the sweeps leave such a row as it is.
	invExit []float64
	allPos  bool // every row of every lane has invExit > 0
}

// newBatch allocates an empty four-lane batch over the plan's component
// skeleton with the given number of live lanes.
func newBatch(plan *solvePlan, live int) *batchComponent {
	return &batchComponent{
		n:       len(plan.target),
		live:    live,
		inStart: plan.inStart,
		inOff:   plan.inOff,
		rate:    make([]float64, len(plan.inOff)*BatchLanes),
		invExit: make([]float64, len(plan.target)*BatchLanes),
		allPos:  true,
	}
}

// fillCurrent gathers the chain's built-in rates — the Rows and Exit that
// Build wrote — into a one-lane batch whose pad lanes copy lane 0: the
// batch a SteadyStateTraced solve runs. The traversal replays
// the plan's fill order (target rows in order, entries in column-ascending
// order), and exits are the chain's own, so a chain assembled by hand with
// no contribution terms solves too.
func (c *CTMC) fillCurrent(plan *solvePlan) *batchComponent {
	bc := newBatch(plan, 1)
	t := 0
	for li, s := range plan.target {
		for _, e := range c.Rows[s] {
			if pos := plan.fillPos[t]; pos >= 0 {
				rs := bc.rate[int(pos)*BatchLanes : int(pos+1)*BatchLanes]
				for k := range rs {
					rs[k] = e.Rate
				}
			}
			t++
		}
		inv := bc.reciprocal(c.Exit[s])
		for k := 0; k < BatchLanes; k++ {
			bc.invExit[li*BatchLanes+k] = inv
		}
	}
	return bc
}

// reciprocal returns 1/exit for a row's invExit, or 0 for an exit rate
// that is not positive, and clears allPos when the result is 0.
func (bc *batchComponent) reciprocal(exit float64) float64 {
	inv := 0.0
	if exit > 0 {
		inv = 1 / exit
	}
	if inv == 0 {
		bc.allPos = false
	}
	return inv
}

// fillBatch gathers up to BatchLanes per-point rate vectors into the
// plan's skeleton by re-summing each component entry's contribution terms
// per lane — the identical sequence of float additions Build performs —
// and accumulating each lane's exit rates over the row's entries in the
// same column-ascending order Build uses, so every lane's rates and exits
// are bit-identical to a fresh build with the slots bound to that lane's
// values. Pad lanes are filled from points[0].
func (c *CTMC) fillBatch(plan *solvePlan, points [][]float64) *batchComponent {
	var lanes [BatchLanes][]float64
	for k := range lanes {
		lanes[k] = points[0]
	}
	copy(lanes[:], points)
	bc := newBatch(plan, len(points))
	t := 0
	for li, s := range plan.target {
		gi := plan.rowEntryBase[li]
		var exit [BatchLanes]float64
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
					bc.rate[int(pos)*BatchLanes+lane] = sum
				}
				exit[lane] += sum
			}
			gi++
			t++
		}
		for lane, e := range exit {
			bc.invExit[li*BatchLanes+lane] = bc.reciprocal(e)
		}
	}
	return bc
}

// spread returns the iterate slab with every lane's column at the
// uniform distribution, the start of every solve.
func (bc *batchComponent) spread() []float64 {
	x := make([]float64, bc.n*BatchLanes)
	u := 1 / float64(bc.n)
	for i := range x {
		x[i] = u
	}
	return x
}

// padDone is the initial deactivation mask: live lanes run, pad lanes are
// frozen from the first sweep.
func (bc *batchComponent) padDone() []bool {
	done := make([]bool, BatchLanes)
	for k := bc.live; k < BatchLanes; k++ {
		done[k] = true
	}
	return done
}

// column copies lane k's column out of the iterate slab.
func (bc *batchComponent) column(x []float64, k int) []float64 {
	col := make([]float64, bc.n)
	for j := range col {
		col[j] = x[j*BatchLanes+k]
	}
	return col
}

// gaussSeidelBatch runs the sequential Gauss-Seidel sweep on every lane of
// the batch at once: rows are visited in order and each row update reads
// the in-place column, so updates feed forward within the sweep, per lane.
// Every extrapolationPeriod sweeps each live lane also tries one
// safeguarded Aitken step (aitken.observe), from its own column alone.
// Lanes never mix — the same inflow summation order, the same division by
// the exit rate, the same residual, normalization and extrapolation
// arithmetic in every lane — so a lane's converged column is bit-identical
// whichever lanes share its batch, a one-lane solo solve included. A
// lane's column is copied out after the sweep where its residual first
// drops below the tolerance; the test is made on the swept column, before
// any extrapolation, so an extrapolated column never counts as converged.
// From then on the lane stays frozen in the four-lane slab with its
// bookkeeping (normalization, residual check, history) skipped, like the
// pad lanes. The batch is never narrowed or compacted: a frozen lane
// rides along in the one vector register of every row. It returns one
// result per live lane. SteadyStateTraced calls it on a one-lane batch,
// SolveBatchLanes once per group of at most BatchLanes points.
func (bc *batchComponent) gaussSeidelBatch(solve SolveOptions) ([]laneResult, error) {
	K := bc.live
	res := make([]laneResult, K)
	cancel := cancelChan(solve.Ctx)
	x := bc.spread()
	done := bc.padDone()
	remaining := K
	delta := make([]float64, BatchLanes)
	sums := make([]float64, BatchLanes)
	hist := newAitken(bc.n, K)
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
				res[k].err = &ConvergenceError{Iterations: iter + 1, Residual: delta[k], Tolerance: solve.Tolerance, Point: -1}
				done[k] = true
				remaining--
				continue
			}
			if delta[k] < solve.Tolerance {
				res[k].x = bc.column(x, k)
				res[k].st = solveStats{Iterations: iter + 1, Residual: delta[k]}
				done[k] = true
				remaining--
				continue
			}
			hist.observe(x, k, iter+1)
		}
	}
	for k := 0; k < K; k++ {
		if !done[k] {
			res[k].err = &ConvergenceError{Iterations: solve.MaxIterations, Residual: delta[k], Tolerance: solve.Tolerance, Point: -1}
		}
	}
	return res, nil
}

// extrapolationPeriod is how often, in sweeps, a lane tries an Aitken
// step: after sweeps 10, 20, 30, ..., each from the differences of that
// period's last three sweeps. With it and extrapolationAgreement the
// minimized 12×12 streaming chain converges in 271 sweeps at a 5 ms
// awake period (plain Gauss-Seidel: 1,493) and 181 at 50 ms (766), the
// 10×10 in 227 at 5 ms (1,085); no point of solve_counters.json takes
// more than 1.4% over plain Gauss-Seidel's count, and the worst error
// against the exact GTH solve from 1 ms to 1e5 ms is 6.2e-11 relative
// (plain: 7.2e-11).
const extrapolationPeriod = 10

// extrapolationAgreement bounds how far the two ratio estimates of an
// Aitken step may differ, as a fraction of 1−r (how much of the slow
// error mode one sweep removes): |r − r'| ≤ 0.1·(1−r). Within it the
// slow mode dominates both differences, so the step removes it; beyond
// it other modes still weigh in and the step is skipped.
const extrapolationAgreement = 0.1

// aitken is every live lane's history for the extrapolation step: the
// lane's iterate one sweep back and its last sweep difference, one column
// each (lane k's at [k*n:(k+1)*n]), so a one-lane solve keeps one column
// of each, not four; plus, per lane, ⟨d,d⟩ of the last difference and the
// ratio estimate of the sweep before.
type aitken struct {
	n          int
	prev, diff []float64
	dd, ratio  [BatchLanes]float64
}

func newAitken(n, live int) *aitken {
	return &aitken{n: n, prev: make([]float64, n*live), diff: make([]float64, n*live)}
}

// observe runs lane k's share of the extrapolation after sweep s (from
// 1), on the lane's normalized column in the slab x. Gauss-Seidel's error
// on the DPM chains at short awake periods decays like one slow mode,
// e ← r·e with r near 0.98, so each sweep difference d = x_s − x_{s−1}
// is nearly r times the last. Over the last three sweeps of each period
// it records the differences d₁, d₂, d₃ and estimates r twice:
// r' = ⟨d₂,d₁⟩/⟨d₁,d₁⟩ and r = ⟨d₃,d₂⟩/⟨d₂,d₂⟩. When both lie in (0, 1)
// and agree within extrapolationAgreement·(1−r), the geometric tail
// x + r/(1−r)·d₃ is where the iteration is heading; if it has no
// negative entry it replaces the lane's column, renormalized to sum 1 in
// row order exactly as a sweep renormalizes. Otherwise the column is
// left as swept. Every sum runs in row order from +0, so the step is a
// function of the lane's column history alone.
func (h *aitken) observe(x []float64, k, s int) {
	n := h.n
	prev, diff := h.prev[k*n:(k+1)*n], h.diff[k*n:(k+1)*n]
	switch s % extrapolationPeriod {
	case extrapolationPeriod - 3:
		for j := range prev {
			prev[j] = x[j*BatchLanes+k]
		}
	case extrapolationPeriod - 2, extrapolationPeriod - 1:
		// After sweep 8, diff holds a difference of the last period
		// (zeros at first), so that sweep's ratio means nothing; sweep 9
		// overwrites it with r'.
		cross, dd := 0.0, 0.0
		for j := range prev {
			xj := x[j*BatchLanes+k]
			d := xj - prev[j]
			cross += d * diff[j]
			dd += d * d
			prev[j], diff[j] = xj, d
		}
		h.ratio[k] = cross / h.dd[k]
		h.dd[k] = dd
	case 0:
		cross := 0.0
		for j := range prev {
			cross += (x[j*BatchLanes+k] - prev[j]) * diff[j]
		}
		r, r1 := cross/h.dd[k], h.ratio[k]
		if !(r > 0 && r < 1 && r1 > 0 && r1 < 1 && math.Abs(r-r1) <= extrapolationAgreement*(1-r)) {
			return
		}
		f, sum := r/(1-r), 0.0
		for j := range prev {
			xj := x[j*BatchLanes+k]
			y := xj + f*(xj-prev[j])
			if !(y >= 0) {
				return
			}
			prev[j] = y
			sum += y
		}
		scale := 1 / sum
		for j, y := range prev {
			x[j*BatchLanes+k] = y * scale
		}
	}
}

// step runs one Gauss-Seidel iteration of every live lane: one sweep,
// then each lane's column normalized by its row-order sum — the
// iteration body of gaussSeidelBatch. On return delta[k] is live lane k's
// residual and sums[k] its column sum before normalization; a lane whose
// sum is not positive is left unscaled for the caller to fail. Frozen
// lanes keep their columns bit for bit, and their delta and sums entries
// are not meaningful.
//
// sweepGS4Fast may run the sweep in the vectorized amd64 kernel, which
// fuses the sums into the sweep, and scaleGS4Fast the rescale. Their
// multiplies and adds are the same IEEE-754 double operations the scalar
// sweepGS4, laneSums and scaleLanes perform, in the same per-lane order,
// so the results are bit-identical (pinned by a test that runs both).
func (bc *batchComponent) step(x, delta, sums []float64, done []bool) {
	clear(delta)
	if !bc.sweepGS4Fast(x, delta, sums, done) {
		bc.sweepGS4(x, delta, done)
		bc.laneSums(x, sums)
	}
	var scale [BatchLanes]float64
	for k := range scale {
		scale[k] = 1
		if !done[k] && !(sums[k] <= 0) {
			scale[k] = 1 / sums[k]
		}
	}
	if !bc.scaleGS4Fast(x, &scale) {
		bc.scaleLanes(x, scale[:])
	}
}

// laneSums accumulates every lane's row-order sum of the iterate slab in
// one pass over all four lanes: each lane gets its own sequential
// accumulator chain over rows 0..n-1 from +0, the canonical normalization
// order, so the per-lane sums are bit-identical to four strided per-lane
// walks — at one slab traversal instead of four. It is the scalar path's
// normalization and the reference the vectorized kernel's fused sums are
// pinned to.
func (bc *batchComponent) laneSums(x, sums []float64) {
	var s0, s1, s2, s3 float64
	for j := 0; j < bc.n; j++ {
		xs := x[j*4 : j*4+4 : j*4+4]
		s0 += xs[0]
		s1 += xs[1]
		s2 += xs[2]
		s3 += xs[3]
	}
	sums[0], sums[1], sums[2], sums[3] = s0, s1, s2, s3
}

// scaleLanes multiplies every lane's column by its scale factor in one
// pass over all four lanes of the iterate slab: the scalar path's rescale
// and the reference for scaleGS4Fast. Callers pass exactly 1 for lanes
// that must not move (x*1 is bit-identical for every finite x), so the
// pass needs no per-element branching.
func (bc *batchComponent) scaleLanes(x, scale []float64) {
	s0, s1, s2, s3 := scale[0], scale[1], scale[2], scale[3]
	for j := 0; j < bc.n; j++ {
		xs := x[j*4 : j*4+4 : j*4+4]
		xs[0] *= s0
		xs[1] *= s1
		xs[2] *= s2
		xs[3] *= s3
	}
}

// sweepGS4 is the scalar four-lane Gauss-Seidel kernel, the reference
// the vectorized kernel is pinned to and the fallback where it is
// unavailable: the row's in-edges are traversed once with four scalar
// accumulators, so the CSR index loads, the bounds checks, and the loop
// control are paid once for all lanes (the lane stride of 4 float64s is
// one 32-byte AVX register), and the four independent accumulator chains
// keep the FP units busy where a one-lane kernel would stall on one add
// chain. The accumulation runs for frozen lanes too — it rides in the
// shared traversal for free — but the per-lane epilogue (the divide, the
// residual, the write) is skipped for them, so their columns stay frozen
// at the values of their convergence sweep and no live lane is affected.
func (bc *batchComponent) sweepGS4(x, delta []float64, done []bool) {
	n := bc.n
	var dead [4]bool
	copy(dead[:], done)
	for j := 0; j < n; j++ {
		base := j * 4
		lo, hi := int(bc.inStart[j]), int(bc.inStart[j+1])
		var a0, a1, a2, a3 float64
		for e := lo; e < hi; e++ {
			off := int(bc.inOff[e])
			xs := x[off : off+4 : off+4]
			rs := bc.rate[e*4 : e*4+4 : e*4+4]
			a0 += xs[0] * rs[0]
			a1 += xs[1] * rs[1]
			a2 += xs[2] * rs[2]
			a3 += xs[3] * rs[3]
		}
		acc := [4]float64{a0, a1, a2, a3}
		for k := 0; k < 4; k++ {
			if dead[k] || bc.invExit[base+k] == 0 {
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
