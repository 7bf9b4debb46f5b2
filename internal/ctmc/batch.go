package ctmc

import (
	"errors"
	"fmt"
	"math"
)

// BatchOptions tunes SolveBatch.
type BatchOptions struct {
	// Solve is the shared solver configuration: tolerance, iteration
	// bound, sweep selection, and warm start are resolved exactly as
	// SteadyState resolves them, and the one WarmStart vector
	// seeds every lane (the sweep-anchor rule: a seed that is a pure
	// function of the input keeps results independent of lane packing).
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
// recorded contribution terms, and one sweep kernel iterates all lanes
// simultaneously — each pass over the CSR indices feeds every lane, so the
// index traffic and loop overhead of K solo solves are paid once.
//
// out[k] is bit-identical to the sequential chain
//
//	clone := c.Clone(); clone.Rebind(points[k]); clone.SteadyState(opts.Solve)
//
// at any lane count: every lane replicates the solo
// sweep's floating-point operations — the same contribution-term sums in
// the same order, the same update, residual, and normalization arithmetic
// — and lanes never mix, so a point's result does not depend on which
// points share its batch. Per-lane residuals are tracked independently and
// a lane deactivates (its column is frozen and copied out) after exactly
// the sweep where a solo run would return. The chain's own rate state is
// not touched: lanes are computed from the contribution terms, so c still
// carries whatever rates the last Build/Rebind wrote.
//
// The sweep scheme is resolved per SolveOptions exactly as SteadyState
// resolves it (see SweepAuto), lane by lane. On failure the lowest failed lane is reported as a
// *BatchPointError wrapping that lane's error, with ConvergenceError
// carrying the lane index and rate vector.
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
// so a caller can escalate exactly the failed lanes (see EscalateFrom)
// instead of discarding the whole batch. The batch-level error is
// reserved for failures of the batch as a whole: invalid input,
// cancellation, and worker panics; when it is non-nil, out and laneErrs
// are nil.
//
// Omega and Escalation must be unset in opts.Solve: lanes always run the
// scheme-default damping so a lane stays bit-identical to a default solo
// solve, and escalation re-solves lanes solo where those options apply.
func (c *CTMC) SolveBatchLanes(points [][]float64, opts BatchOptions) (out [][]float64, laneErrs []error, err error) {
	K := len(points)
	if K == 0 {
		return nil, nil, nil
	}
	if c.numSlots == 0 {
		return nil, nil, fmt.Errorf("ctmc: solve batch: chain has no rate slots; use SteadyState per point")
	}
	if opts.Solve.Omega != 0 {
		return nil, nil, fmt.Errorf("ctmc: solve batch: Omega is a solo-solver option; batch lanes always use the scheme default")
	}
	if opts.Solve.Escalation != EscalateNever {
		return nil, nil, fmt.Errorf("ctmc: solve batch: Escalation is a solo-solver option; escalate failed lanes with EscalateFrom")
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

	// An absorbing single state gets all the probability, in every lane.
	if len(plan.target) == 1 {
		for k := range out {
			pi := make([]float64, c.N)
			pi[plan.target[0]] = 1
			out[k] = pi
		}
		return out, make([]error, K), nil
	}

	bc := c.fillBatch(plan, points)
	start := uniformStart(bc.n)
	if len(solve.WarmStart) == c.N {
		if ws := projectStart(solve.WarmStart, plan.target); ws != nil {
			start = ws
		}
	}

	var (
		cols []([]float64)
		errs []*ConvergenceError
	)
	switch {
	case solve.Sweep == SweepMultilevel:
		cols, errs, err = bc.multilevelBatch(solve, tol, start, c.ensureCoarse(plan))
	case solve.Sweep == SweepAuto && bc.n >= multilevelAutoMin:
		// The batched mirror of the solo auto rule: probe every lane with
		// the same fixed Gauss-Seidel trajectory (bit-identical per lane
		// to the solo probe), route stalled lanes through the multilevel
		// cycle and the rest through Gauss-Seidel, and retry Gauss-Seidel
		// lanes that still exhausted their budget with the multilevel
		// cycle from the original start — the same attempt chain a solo
		// auto solve runs per point. When no lane needs the multilevel
		// path this is exactly the Gauss-Seidel path.
		stalled := bc.stalledLanes(tol, start)
		var ml, rest []int
		for k, s := range stalled {
			if s {
				ml = append(ml, k)
			} else {
				rest = append(rest, k)
			}
		}
		cols = make([][]float64, K)
		errs = make([]*ConvergenceError, K)
		runML := func(lanes []int) error {
			sub := bc.subBatch(lanes)
			subTol := make([]float64, len(lanes))
			for i, k := range lanes {
				subTol[i] = tol[k]
			}
			subCols, subErrs, err := sub.multilevelBatch(solve, subTol, start, c.ensureCoarse(plan))
			if err != nil {
				return err
			}
			for i, k := range lanes {
				cols[k], errs[k] = subCols[i], subErrs[i]
			}
			return nil
		}
		if len(ml) > 0 {
			if mlErr := runML(ml); mlErr != nil {
				return nil, nil, mlErr
			}
		}
		if len(rest) > 0 {
			restTol := make([]float64, len(rest))
			for i, k := range rest {
				restTol[i] = tol[k]
			}
			rCols, rErrs, rErr := bc.subBatch(rest).gaussSeidelBatch(solve, restTol, start)
			if rErr != nil {
				return nil, nil, rErr
			}
			var retry []int
			for i, k := range rest {
				if rErrs[i] != nil && errors.Is(rErrs[i], ErrNoConvergence) {
					retry = append(retry, k)
					continue
				}
				cols[k], errs[k] = rCols[i], rErrs[i]
			}
			if len(retry) > 0 {
				if mlErr := runML(retry); mlErr != nil {
					return nil, nil, mlErr
				}
			}
		}
	default:
		cols, errs, err = bc.gaussSeidelBatch(solve, tol, start)
	}
	if err != nil {
		return nil, nil, err
	}
	laneErrs = make([]error, K)
	for k := 0; k < K; k++ {
		if ce := errs[k]; ce != nil {
			ce.Point = k
			ce.Params = append([]float64(nil), points[k]...)
			laneErrs[k] = ce
			continue
		}
		pi := make([]float64, c.N)
		for j, s := range plan.target {
			pi[s] = cols[k][j]
		}
		out[k] = pi
	}
	return out, laneErrs, nil
}

// batchComponent is the K-lane analogue of component: the incoming CSR
// index structure is shared across lanes while rates, exit rates, and
// iterates are stored lane-interleaved, structure-of-arrays style — the
// value of lane k at row j (or in-edge e) lives at [j*K+k] ([e*K+k]) — so
// one pass over the indices streams all K lanes through contiguous memory.
type batchComponent struct {
	n, k    int
	inStart []int32
	inFrom  []int32
	rate    []float64 // lane-interleaved in-edge rates
	exit    []float64 // lane-interleaved exit rates
	invExit []float64 // lane-interleaved 1/exit (0 where exit is 0)
	allPos  bool      // every row of every lane has exit > 0
}

// fillBatch gathers the K per-point rate vectors into the plan's skeleton
// by re-summing each component entry's contribution terms per lane — the
// identical sequence of float additions Rebind replays — and accumulating
// each lane's exit rates over the row's entries in the same
// column-ascending order Rebind uses, so every lane's rates and exits are
// bit-identical to a Rebind of the whole chain at that lane's values.
func (c *CTMC) fillBatch(plan *solvePlan, points [][]float64) *batchComponent {
	K := len(points)
	bc := &batchComponent{
		n:       len(plan.target),
		k:       K,
		inStart: plan.inStart,
		inFrom:  plan.inFrom,
		rate:    make([]float64, len(plan.inFrom)*K),
		exit:    make([]float64, len(plan.target)*K),
		invExit: make([]float64, len(plan.target)*K),
		allPos:  true,
	}
	t := 0
	for li, s := range plan.target {
		gi := plan.rowEntryBase[li]
		for range c.Rows[s] {
			lo, hi := c.termStart[gi], c.termStart[gi+1]
			pos := plan.fillPos[t]
			for lane, vals := range points {
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
					bc.rate[int(pos)*K+lane] = sum
				}
				bc.exit[li*K+lane] += sum
			}
			gi++
			t++
		}
		for lane := 0; lane < K; lane++ {
			if e := bc.exit[li*K+lane]; e > 0 {
				bc.invExit[li*K+lane] = 1 / e
			} else {
				bc.allPos = false
			}
		}
	}
	return bc
}

// subBatch extracts the given lanes into a new batch component sharing the
// index structure (for the auto-mode lane routing and for compaction).
func (bc *batchComponent) subBatch(lanes []int) *batchComponent {
	K2 := len(lanes)
	sub := &batchComponent{
		n:       bc.n,
		k:       K2,
		inStart: bc.inStart,
		inFrom:  bc.inFrom,
		rate:    make([]float64, len(bc.inFrom)*K2),
		exit:    make([]float64, bc.n*K2),
		invExit: make([]float64, bc.n*K2),
		allPos:  bc.allPos,
	}
	for e := 0; e < len(bc.inFrom); e++ {
		for i, k := range lanes {
			sub.rate[e*K2+i] = bc.rate[e*bc.k+k]
		}
	}
	for j := 0; j < bc.n; j++ {
		for i, k := range lanes {
			sub.exit[j*K2+i] = bc.exit[j*bc.k+k]
			sub.invExit[j*K2+i] = bc.invExit[j*bc.k+k]
		}
	}
	return sub
}

// spread replicates the shared start vector into every lane's column.
func (bc *batchComponent) spread(start []float64) []float64 {
	x := make([]float64, bc.n*bc.k)
	for j := 0; j < bc.n; j++ {
		for k := 0; k < bc.k; k++ {
			x[j*bc.k+k] = start[j]
		}
	}
	return x
}

// gaussSeidelBatch runs the sequential Gauss-Seidel sweep on every lane of
// the batch at once: rows are visited in order and each row update feeds
// forward within the sweep, per lane, exactly as the solo sweep does —
// the same inflow summation order, the same division by the exit rate, the
// same residual and per-element normalization arithmetic — so every lane's
// converged column is bit-identical to a solo gaussSeidel at that lane's
// rates. A lane's column is copied out after exactly the sweep where a
// solo run would return. A finished lane first rides along in the wide
// kernel with its bookkeeping (normalization, residual check) skipped —
// the shared index traversal makes a mostly-live wide sweep cheaper than
// any narrowed path — and once at most four lanes are live the batch is
// compacted to exactly the live lanes so the remaining sweeps run in a
// narrower kernel (widths 4, 2, and 1 are specialized; width 1 degenerates
// to the solo sweep). Neither riding along nor compaction can change any
// result: lanes never mix, and a compacted lane keeps its exact column
// values and its running residual. It returns one column or one error per
// lane (never both).
func (bc *batchComponent) gaussSeidelBatch(solve SolveOptions, tol []float64, start []float64) ([][]float64, []*ConvergenceError, error) {
	K := bc.k
	out := make([][]float64, K)
	errs := make([]*ConvergenceError, K)
	cancel := cancelChan(solve.Ctx)

	// The current, possibly compacted, view of the batch: cur holds the
	// rates of the lanes still being swept, x their iterate slab, and
	// lanes[i] the original lane index of cur's lane i.
	cur := bc
	x := bc.spread(start)
	lanes := make([]int, K)
	for k := range lanes {
		lanes[k] = k
	}
	curTol := append([]float64(nil), tol...)
	done := make([]bool, K)
	remaining := K

	delta := make([]float64, K)
	sums := make([]float64, K)
	scale := make([]float64, K)
	iter := 0
	for ; iter < solve.MaxIterations && remaining > 0; iter++ {
		if err := pollSolve(solve.Ctx, cancel, iter); err != nil {
			return nil, nil, err
		}
		w := cur.k
		for k := 0; k < w; k++ {
			delta[k] = 0
		}
		cur.sweepGSWidth(x, delta[:w], done)
		// Normalize to avoid drift. One full-width pass accumulates every
		// live lane's canonical row-order sum, and one full-width pass
		// multiplies by the reciprocals — the solo sweep's exact per-lane
		// operations, without a strided walk of the slab per lane. Dead
		// lanes are scaled by exactly 1, which leaves their frozen columns
		// bit-identical.
		cur.laneSums(x, sums[:w])
		for k := 0; k < w; k++ {
			scale[k] = 1
			if done[k] {
				continue
			}
			if sums[k] <= 0 {
				errs[lanes[k]] = &ConvergenceError{Iterations: iter + 1, Residual: delta[k], Tolerance: curTol[k], Sweep: SweepGaussSeidel, Point: -1}
				done[k] = true
				remaining--
				continue
			}
			scale[k] = 1 / sums[k]
		}
		cur.scaleLanes(x, scale[:w])
		for k := 0; k < w; k++ {
			if done[k] || !(delta[k] < curTol[k]) {
				continue
			}
			col := make([]float64, cur.n)
			for j := 0; j < cur.n; j++ {
				col[j] = x[j*w+k]
			}
			out[lanes[k]] = col
			done[k] = true
			remaining--
		}
		if remaining > 0 && remaining < w && remaining <= 4 {
			cur, x, lanes, curTol, done = compactBatch(cur, x, lanes, curTol, done, remaining)
		}
	}
	for k := 0; k < cur.k; k++ {
		if !done[k] {
			errs[lanes[k]] = &ConvergenceError{Iterations: solve.MaxIterations, Residual: delta[k], Tolerance: curTol[k], Sweep: SweepGaussSeidel, Point: -1}
		}
	}
	return out, errs, nil
}

// compactBatch narrows a batch to its live lanes: the rate arrays are
// re-gathered at the new width by subBatch, the live columns of the
// iterate slab are copied over unchanged, and the lane map and tolerances
// are remapped. Compaction is pure data movement — every surviving lane
// keeps its exact column values — so the lanes' remaining sweeps compute
// the same floats they would have computed at the old width.
func compactBatch(cur *batchComponent, x []float64, lanes []int, tol []float64, done []bool, remaining int) (*batchComponent, []float64, []int, []float64, []bool) {
	w := cur.k
	live := make([]int, 0, remaining)
	for k := 0; k < w; k++ {
		if !done[k] {
			live = append(live, k)
		}
	}
	sub := cur.subBatch(live)
	nx := make([]float64, cur.n*len(live))
	nl := make([]int, len(live))
	nt := make([]float64, len(live))
	for j := 0; j < cur.n; j++ {
		for i, k := range live {
			nx[j*len(live)+i] = x[j*w+k]
		}
	}
	for i, k := range live {
		nl[i] = lanes[k]
		nt[i] = tol[k]
	}
	return sub, nx, nl, nt, make([]bool, len(live))
}

// sweepGSWidth dispatches one Gauss-Seidel sweep to the kernel specialized
// for the batch's current width. At width 8, sweepGS8Fast may run the
// sweep in the vectorized amd64 kernel; its multiplies and adds are the
// same IEEE-754 double operations the scalar kernel performs, in the same
// per-lane order, so its results are bit-identical (pinned by a test that
// runs both kernels).
func (bc *batchComponent) sweepGSWidth(x, delta []float64, done []bool) {
	switch bc.k {
	case 8:
		if !bc.sweepGS8Fast(x, delta, done) {
			bc.sweepGS8(x, delta, done)
		}
	case 4:
		bc.sweepGS4(x, delta, done)
	case 2:
		bc.sweepGS2(x, delta, done)
	case 1:
		bc.sweepGS1(x, delta, done)
	default:
		bc.sweepGS(x, delta, done)
	}
}

// laneSums accumulates every lane's row-order sum of the iterate slab in
// one full-width pass: each lane gets its own sequential accumulator chain
// over rows 0..n-1, the canonical order the solo sweep's normalization
// sums in, so the per-lane sums are bit-identical to n strided per-lane
// walks — at one slab traversal instead of k.
func (bc *batchComponent) laneSums(x, sums []float64) {
	n := bc.n
	switch bc.k {
	case 8:
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for j := 0; j < n; j++ {
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
	case 4:
		var s0, s1, s2, s3 float64
		for j := 0; j < n; j++ {
			xs := x[j*4 : j*4+4 : j*4+4]
			s0 += xs[0]
			s1 += xs[1]
			s2 += xs[2]
			s3 += xs[3]
		}
		sums[0], sums[1], sums[2], sums[3] = s0, s1, s2, s3
	case 2:
		var s0, s1 float64
		for j := 0; j < n; j++ {
			s0 += x[j*2]
			s1 += x[j*2+1]
		}
		sums[0], sums[1] = s0, s1
	case 1:
		s := 0.0
		for _, v := range x[:n] {
			s += v
		}
		sums[0] = s
	default:
		K := bc.k
		for k := range sums {
			sums[k] = 0
		}
		for j := 0; j < n; j++ {
			base := j * K
			for k := 0; k < K; k++ {
				sums[k] += x[base+k]
			}
		}
	}
}

// scaleLanes multiplies every lane's column by its scale factor in one
// full-width pass over the iterate slab. Callers pass exactly 1 for lanes
// that must not move (x*1 is bit-identical for every finite x), so the
// pass needs no per-element branching.
func (bc *batchComponent) scaleLanes(x, scale []float64) {
	n := bc.n
	switch bc.k {
	case 8:
		s0, s1, s2, s3 := scale[0], scale[1], scale[2], scale[3]
		s4, s5, s6, s7 := scale[4], scale[5], scale[6], scale[7]
		for j := 0; j < n; j++ {
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
	case 4:
		s0, s1, s2, s3 := scale[0], scale[1], scale[2], scale[3]
		for j := 0; j < n; j++ {
			xs := x[j*4 : j*4+4 : j*4+4]
			xs[0] *= s0
			xs[1] *= s1
			xs[2] *= s2
			xs[3] *= s3
		}
	case 2:
		s0, s1 := scale[0], scale[1]
		for j := 0; j < n; j++ {
			x[j*2] *= s0
			x[j*2+1] *= s1
		}
	case 1:
		s := scale[0]
		for j := 0; j < n; j++ {
			x[j] *= s
		}
	default:
		K := bc.k
		for j := 0; j < n; j++ {
			base := j * K
			for k := 0; k < K; k++ {
				x[base+k] *= scale[k]
			}
		}
	}
}

// sweepGS is one full-width Gauss-Seidel sweep. Finished lanes (done[k])
// are skipped entirely: their columns stay frozen at the values of their
// convergence sweep, and skipping their divides and writes cannot affect
// any live lane because lanes never mix.
func (bc *batchComponent) sweepGS(x, delta []float64, done []bool) {
	n, K := bc.n, bc.k
	for j := 0; j < n; j++ {
		base := j * K
		lo, hi := int(bc.inStart[j]), int(bc.inStart[j+1])
		for k := 0; k < K; k++ {
			if done[k] || bc.exit[base+k] <= 0 {
				continue
			}
			inflow := 0.0
			for e := lo; e < hi; e++ {
				inflow += x[int(bc.inFrom[e])*K+k] * bc.rate[e*K+k]
			}
			next := inflow * bc.invExit[base+k]
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

// sweepGS8 is the specialized full-width kernel for eight lanes: the
// row's in-edges are traversed once with eight scalar accumulators, so
// the CSR index loads, the bounds checks, and the loop control are paid
// once for all lanes (the lane stride of 8 float64s is exactly one
// 64-byte cache line), and the eight independent accumulator chains keep
// the FP units busy where the solo sweep stalls on one add chain. The
// accumulation runs for finished lanes too — it rides in the shared
// traversal for free — but the per-lane epilogue (the divides, the
// residual, the write) is skipped for them, so the expensive serial tail
// is paid exactly once per live lane-row, as in a solo sweep. The
// arithmetic per live lane is identical to sweepGS.
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

// sweepGS4 is the four-lane Gauss-Seidel kernel, used after compaction:
// the structure of sweepGS8 at half the lane stride. Arithmetic per live
// lane is identical to sweepGS.
func (bc *batchComponent) sweepGS4(x, delta []float64, done []bool) {
	n := bc.n
	var dead [4]bool
	copy(dead[:], done)
	for j := 0; j < n; j++ {
		base := j * 4
		lo, hi := int(bc.inStart[j]), int(bc.inStart[j+1])
		var a0, a1, a2, a3 float64
		for e := lo; e < hi; e++ {
			fb := int(bc.inFrom[e]) * 4
			xs := x[fb : fb+4 : fb+4]
			rs := bc.rate[e*4 : e*4+4 : e*4+4]
			a0 += xs[0] * rs[0]
			a1 += xs[1] * rs[1]
			a2 += xs[2] * rs[2]
			a3 += xs[3] * rs[3]
		}
		acc := [4]float64{a0, a1, a2, a3}
		for k := 0; k < 4; k++ {
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

// sweepGS2 is the two-lane Gauss-Seidel kernel, used after compaction.
// Arithmetic per live lane is identical to sweepGS.
func (bc *batchComponent) sweepGS2(x, delta []float64, done []bool) {
	n := bc.n
	dead0, dead1 := done[0], done[1]
	for j := 0; j < n; j++ {
		base := j * 2
		lo, hi := int(bc.inStart[j]), int(bc.inStart[j+1])
		var a0, a1 float64
		for e := lo; e < hi; e++ {
			fb := int(bc.inFrom[e]) * 2
			a0 += x[fb] * bc.rate[e*2]
			a1 += x[fb+1] * bc.rate[e*2+1]
		}
		if !dead0 && bc.exit[base] > 0 {
			next := a0 * bc.invExit[base]
			d := math.Abs(next - x[base])
			if m := math.Max(next, 1e-300); d > delta[0]*m*residualGuard {
				if rel := d / m; rel > delta[0] {
					delta[0] = rel
				}
			}
			x[base] = next
		}
		if !dead1 && bc.exit[base+1] > 0 {
			next := a1 * bc.invExit[base+1]
			d := math.Abs(next - x[base+1])
			if m := math.Max(next, 1e-300); d > delta[1]*m*residualGuard {
				if rel := d / m; rel > delta[1] {
					delta[1] = rel
				}
			}
			x[base+1] = next
		}
	}
}

// sweepGS1 is the single-lane Gauss-Seidel kernel a fully compacted batch
// degenerates to — the solo gaussSeidel inner loop verbatim, so the last
// surviving lane of a batch pays exactly the solo sweep's cost.
func (bc *batchComponent) sweepGS1(x, delta []float64, done []bool) {
	if done[0] {
		return
	}
	n := bc.n
	d := delta[0]
	for j := 0; j < n; j++ {
		if bc.exit[j] <= 0 {
			continue
		}
		lo, hi := int(bc.inStart[j]), int(bc.inStart[j+1])
		inflow := 0.0
		for e := lo; e < hi; e++ {
			inflow += x[int(bc.inFrom[e])] * bc.rate[e]
		}
		next := inflow * bc.invExit[j]
		dd := math.Abs(next - x[j])
		if m := math.Max(next, 1e-300); dd > d*m*residualGuard {
			if rel := dd / m; rel > d {
				d = rel
			}
		}
		x[j] = next
	}
	delta[0] = d
}
