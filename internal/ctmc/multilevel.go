package ctmc

import (
	"fmt"
	"math"

	"repro/internal/bisim"
	"repro/internal/fault"
	"repro/internal/faultinject"
)

// This file implements the SweepMultilevel scheme: a deterministic
// two-level iterative aggregation/disaggregation (IAD) outer loop around
// the Gauss-Seidel smoother. Near-completely-decomposable chains — the
// DPM structure of long sleep/idle dwells with rare wake transitions —
// have a slow mode per state cluster that plain sweeps attack at O(1/ε)
// iterations; the coarse solve moves exactly that mode in one exact step
// per cycle, so convergence is bounded by the fast local mixing instead.
//
// Determinism: the coarsening partition is computed from the chain's
// canonical-point rates (every slot value = 1), so it is a pure function
// of the chain's structure — invariant under Rebind, identical for every
// clone sharing the plan, and independent of which goroutine builds it
// first. The smoother is the sequential Gauss-Seidel kernel and the
// coarse solve is the sequential GTH elimination, so the whole scheme is
// a pure function of its input by construction, lane by lane.

const (
	// multilevelPreSweeps/PostSweeps are the smoothing sweeps per outer
	// cycle. Convergence is tested only after post-smoothing sweeps: the
	// iterate right after disaggregation took a non-smoothing step, so its
	// residual would be meaningless.
	multilevelPreSweeps  = 4
	multilevelPostSweeps = 4
	// multilevelSizeFloor is the minimum state count of a coarse block:
	// partition blocks are merged, in canonical block order, until each
	// aggregate reaches the floor.
	multilevelSizeFloor = 2
	// multilevelMaxCoarse caps the aggregated chain: above it, blocks are
	// merged into contiguous runs, keeping the dense GTH solve O(nb³)
	// with nb ≤ 128 — negligible next to the fine sweeps it replaces.
	multilevelMaxCoarse = 128
	// multilevelAutoMin is the component size at which SweepAuto runs the
	// stall probe at all; smaller components converge in microseconds
	// under any scheme.
	multilevelAutoMin = 64
	// The stall probe runs multilevelProbeSweeps Gauss-Seidel sweeps on a
	// copy of the start vector and compares the residual at sweep
	// multilevelProbeCheck with the final one: decay by less than
	// multilevelStallRatio over the remaining sweeps means the smoother
	// is grinding at a slow mode the coarse correction can remove.
	multilevelProbeSweeps = 24
	multilevelProbeCheck  = 8
	multilevelStallRatio  = 0.7
)

// coarsePlan is the cached coarse operator of the multilevel scheme: the
// coarsening partition of the component (restriction map), the block
// membership CSR (prolongation layout), and the per-edge cell index that
// turns re-aggregation after a Rebind into one O(edges) gather. Like the
// solvePlan it hangs off, it depends only on the chain's structure and
// canonical-point rates, so one coarse plan serves every rebind of a
// chain and all its clones.
type coarsePlan struct {
	// nb is the number of coarse blocks.
	nb int
	// blockOf maps a local component state to its coarse block.
	blockOf []int32
	// blockStart/blockState list each block's member states (ascending)
	// CSR-style: block b's members are blockState[blockStart[b]:
	// blockStart[b+1]]. The multilevel cycle needs only the block sizes
	// (for the uniform fallback when a block's mass underflows), but the
	// membership is what a future selective disaggregation would walk.
	blockStart []int32
	blockState []int32
	// cell[e] = blockOf[from]·nb + blockOf[to] for component in-edge e:
	// aggregating the current rates is one pass adding w[from]·rate[e]
	// into a dense nb×nb matrix at cell[e].
	cell []int32
}

// ensureCoarse returns the plan's cached coarse operator, computing it on
// first use (sync.Once: clones share the plan, and with it the coarse
// structure). It must only be called on plans with a multi-state target.
func (c *CTMC) ensureCoarse(p *solvePlan) *coarsePlan {
	p.coarseOnce.Do(func() { p.coarse = buildCoarse(c, p) })
	return p.coarse
}

// buildCoarse computes the coarsening partition and the coarse index
// structure. The partition is derived from the component's canonical-point
// rates: every contribution term is summed at slot value 1, which is a
// pure function of the built structure — two clones rebound to different
// rate points still agree on it, so the shared plan's coarse structure
// does not depend on which clone solves first. Chains without recorded
// terms (hand-assembled, slot-free) use their current rates, which for
// them are the only rates the chain will ever have.
func buildCoarse(c *CTMC, p *solvePlan) *coarsePlan {
	n := len(p.target)
	rate := make([]float64, len(p.inFrom))
	t := 0
	for li, s := range p.target {
		gi := int(p.rowEntryBase[li])
		for ei := range c.Rows[s] {
			if pos := p.fillPos[t]; pos >= 0 {
				if c.termStart != nil {
					sum := 0.0
					for ti := c.termStart[gi]; ti < c.termStart[gi+1]; ti++ {
						sum += c.terms[ti].coeff
					}
					rate[pos] = sum
				} else {
					rate[pos] = c.Rows[s][ei].Rate
				}
			}
			gi++
			t++
		}
	}
	to := make([]int32, len(p.inFrom))
	for j := 0; j < n; j++ {
		for e := p.inStart[j]; e < p.inStart[j+1]; e++ {
			to[e] = int32(j)
		}
	}
	blocks := bisim.RatePartition(n, p.inFrom, to, rate)

	// Merge partition blocks into coarse aggregates. RatePartition numbers
	// blocks by first occurrence, so walking them in id order is the fixed
	// tie-breaking rule: consecutive blocks are grouped until each group
	// holds at least multilevelSizeFloor states, a trailing undersized
	// group joins its predecessor, and if the group count still exceeds
	// multilevelMaxCoarse, groups are folded onto contiguous ranges.
	nb0 := 0
	for _, b := range blocks {
		if b+1 > nb0 {
			nb0 = b + 1
		}
	}
	sizes := make([]int, nb0)
	for _, b := range blocks {
		sizes[b]++
	}
	groupOf := make([]int32, nb0)
	ng, acc := 0, 0
	for b := 0; b < nb0; b++ {
		groupOf[b] = int32(ng)
		acc += sizes[b]
		if acc >= multilevelSizeFloor {
			ng++
			acc = 0
		}
	}
	if acc > 0 {
		if ng == 0 {
			ng = 1
		} else {
			for b := nb0 - 1; b >= 0 && groupOf[b] == int32(ng); b-- {
				groupOf[b] = int32(ng - 1)
			}
		}
	}
	if ng > multilevelMaxCoarse {
		for b := range groupOf {
			groupOf[b] = int32(int(groupOf[b]) * multilevelMaxCoarse / ng)
		}
		ng = multilevelMaxCoarse
	}

	cp := &coarsePlan{nb: ng, blockOf: make([]int32, n)}
	for j := 0; j < n; j++ {
		cp.blockOf[j] = groupOf[blocks[j]]
	}
	cp.blockStart = make([]int32, ng+1)
	for _, b := range cp.blockOf {
		cp.blockStart[b+1]++
	}
	for b := 0; b < ng; b++ {
		cp.blockStart[b+1] += cp.blockStart[b]
	}
	cp.blockState = make([]int32, n)
	fill := make([]int32, ng)
	copy(fill, cp.blockStart[:ng])
	for j := 0; j < n; j++ {
		b := cp.blockOf[j]
		cp.blockState[fill[b]] = int32(j)
		fill[b]++
	}
	cp.cell = make([]int32, len(p.inFrom))
	for j := 0; j < n; j++ {
		bj := cp.blockOf[j]
		for e := p.inStart[j]; e < p.inStart[j+1]; e++ {
			cp.cell[e] = cp.blockOf[p.inFrom[e]]*int32(ng) + bj
		}
	}
	return cp
}

// gth solves the steady state of the aggregated chain exactly by the
// Grassmann–Taksar–Heyman elimination: a is the dense nb×nb row-major
// rate matrix (a[i·nb+j] = aggregate rate i→j; diagonal cells are written
// by the aggregation pass but never read), y receives the stationary
// distribution. GTH is subtraction-free — every update adds products of
// nonnegative numbers — so it is stable on the stiff aggregates
// near-decomposable chains produce, and it is one fixed sequential
// elimination order, so it is trivially deterministic. It reports false
// when an elimination step finds no outflow (the aggregate is reducible
// at this iterate), in which case y is meaningless and the caller skips
// the cycle's correction.
func gth(nb int, a, y []float64) bool {
	for k := nb - 1; k >= 1; k-- {
		s := 0.0
		for j := 0; j < k; j++ {
			s += a[k*nb+j]
		}
		if !(s > 0) {
			return false
		}
		inv := 1 / s
		for i := 0; i < k; i++ {
			aik := a[i*nb+k] * inv
			a[i*nb+k] = aik
			if aik != 0 {
				for j := 0; j < k; j++ {
					if j != i {
						a[i*nb+j] += aik * a[k*nb+j]
					}
				}
			}
		}
	}
	y[0] = 1
	total := 1.0
	for k := 1; k < nb; k++ {
		v := 0.0
		for i := 0; i < k; i++ {
			v += y[i] * a[i*nb+k]
		}
		y[k] = v
		total += v
	}
	inv := 1 / total
	for k := 0; k < nb; k++ {
		y[k] *= inv
	}
	return true
}

// stalledLanes is the SweepAuto stall probe: a fixed number of sequential
// Gauss-Seidel sweeps on a copy of the start vector, per lane through the
// batch's iteration body (step), comparing each lane's residual at the
// check sweep with the final one. It is a pure function of the lane's rates, its
// tolerance, and the start — it never consults the context or the
// fault-injection sites — so a lane's verdict does not depend on
// scheduling or on which lanes share its batch. A lane that converges or
// collapses during the probe is frozen (its remaining probe sweeps are
// skipped, which cannot affect other lanes) and reported not-stalled,
// leaving the Gauss-Seidel path to finish the job; the probe iterate is
// discarded either way. It returns one verdict per live lane.
func (bc *batchComponent) stalledLanes(tol []float64, start []float64) []bool {
	K := bc.live
	x := bc.spread(start)
	done := bc.padDone()
	delta := make([]float64, batchLanes)
	sums := make([]float64, batchLanes)
	dCheck := make([]float64, K)
	dEnd := make([]float64, K)
	stalled := make([]bool, K)
	for iter := 0; iter < multilevelProbeSweeps; iter++ {
		bc.step(x, delta, sums, done)
		for k := 0; k < K; k++ {
			if done[k] {
				continue
			}
			if sums[k] <= 0 || delta[k] < tol[k] {
				done[k] = true
				continue
			}
			if iter == multilevelProbeCheck-1 {
				dCheck[k] = delta[k]
			}
			dEnd[k] = delta[k]
		}
	}
	for k := 0; k < K; k++ {
		stalled[k] = !done[k] && dEnd[k] > dCheck[k]*multilevelStallRatio
	}
	return stalled
}

// coarseCorrectLane performs one aggregation/disaggregation step in place
// on lane k's strided column: block masses and within-block conditional
// weights are computed from the pre-smoothed iterate, the aggregated chain
// (rates weighted by the conditionals) is solved exactly, and the column
// is redistributed as x'_j = y[block(j)]·w_j — the coarse solution spread
// by the within-block conditionals. A block whose mass underflowed to zero
// falls back to uniform conditionals; a degenerate aggregate (gth returns
// false) skips the correction, leaving the smoothed column untouched for
// this cycle.
func (bc *batchComponent) coarseCorrectLane(cp *coarsePlan, k int, x, w, sums, a, y []float64) {
	const K = batchLanes
	nb := cp.nb
	for b := 0; b < nb; b++ {
		sums[b] = 0
	}
	for j := 0; j < bc.n; j++ {
		sums[cp.blockOf[j]] += x[j*K+k]
	}
	for j := 0; j < bc.n; j++ {
		b := cp.blockOf[j]
		if s := sums[b]; s > 0 {
			w[j] = x[j*K+k] / s
		} else {
			w[j] = 1 / float64(cp.blockStart[b+1]-cp.blockStart[b])
		}
	}
	for i := range a {
		a[i] = 0
	}
	for e := 0; e < len(bc.inFrom); e++ {
		a[cp.cell[e]] += w[bc.inFrom[e]] * bc.rate[e*K+k]
	}
	if !gth(nb, a, y) {
		return
	}
	for j := 0; j < bc.n; j++ {
		x[j*K+k] = y[cp.blockOf[j]] * w[j]
	}
}

// multilevelBatch runs the IAD outer loop on every lane of the batch at
// once. Iterations are counted in fine-level smoothing sweeps against
// solve.MaxIterations — the budget means the same work under every scheme
// — and convergence is tested after each post-smoothing sweep, against the
// same guarded residual Gauss-Seidel uses. The smoothing sweeps go through
// the batch's one iteration body, step (one CSR traversal feeds all the
// lanes of a live half); the per-lane coarse solves share the cached
// coarse structure, run in ascending lane order behind the shared panic
// guard with a fault-injection site keyed by cycle, and never mix lanes,
// so each lane's result is bit-identical whichever lanes share its batch.
// The equalized outer cycles are what shrink the lane skew: lanes converge
// within a handful of shared cycles instead of straggling for thousands
// of extra sweeps. Converged lanes stay frozen in the eight-lane slab, as
// in gaussSeidelBatch. It returns one result per live lane.
func (bc *batchComponent) multilevelBatch(solve SolveOptions, tol []float64, start []float64, cp *coarsePlan) ([]laneResult, error) {
	K := bc.live
	res := make([]laneResult, K)
	cancel := cancelChan(solve.Ctx)
	x := bc.spread(start)
	done := bc.padDone()
	remaining := K
	delta := make([]float64, batchLanes)
	sums := make([]float64, batchLanes)
	lastDelta := make([]float64, K)
	for k := range lastDelta {
		lastDelta[k] = math.Inf(1)
	}
	nb := cp.nb
	a := make([]float64, nb*nb)
	y := make([]float64, nb)
	bsums := make([]float64, nb)
	w := make([]float64, bc.n)

	iter := 0
	cycles := 0
	// smooth runs one batched smoothing sweep (sweep + per-lane
	// normalization); check selects the post-smoothing residual test.
	smooth := func(cycle int, check bool) error {
		if err := pollSolve(solve.Ctx, cancel, iter); err != nil {
			return err
		}
		bc.step(x, delta, sums, done)
		for k := 0; k < K; k++ {
			if done[k] {
				continue
			}
			if sums[k] <= 0 {
				res[k].err = &ConvergenceError{Iterations: iter + 1, Cycles: cycle, Residual: delta[k],
					Tolerance: tol[k], Sweep: SweepMultilevel, Point: -1}
				done[k] = true
				remaining--
				continue
			}
			lastDelta[k] = delta[k]
		}
		iter++
		if check {
			for k := 0; k < K; k++ {
				if done[k] || !(delta[k] < tol[k]) {
					continue
				}
				res[k].x = bc.column(x, k)
				res[k].st = solveStats{Sweep: SweepMultilevel, Iterations: iter, Cycles: cycle + 1, Residual: delta[k]}
				done[k] = true
				remaining--
			}
		}
		return nil
	}
outer:
	for cycle := 0; remaining > 0; cycle++ {
		cycles = cycle
		for s := 0; s < multilevelPreSweeps; s++ {
			if iter >= solve.MaxIterations {
				break outer
			}
			if err := smooth(cycle, false); err != nil {
				return nil, err
			}
			if remaining == 0 {
				continue outer
			}
		}
		for k := 0; k < K; k++ {
			if done[k] {
				continue
			}
			err := fault.Guard("ctmc.multilevel", k, fmt.Sprintf("coarse cycle %d lane %d", cycle, k), func() error {
				faultinject.MaybePanic(faultinject.SiteCoarseSolve, cycle)
				bc.coarseCorrectLane(cp, k, x, w, bsums, a, y)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		for s := 0; s < multilevelPostSweeps; s++ {
			if iter >= solve.MaxIterations {
				break outer
			}
			if err := smooth(cycle, true); err != nil {
				return nil, err
			}
			if remaining == 0 {
				break outer
			}
		}
		cycles = cycle + 1
	}
	for k := 0; k < K; k++ {
		if !done[k] {
			res[k].err = &ConvergenceError{Iterations: iter, Cycles: cycles, Residual: lastDelta[k],
				Tolerance: tol[k], Sweep: SweepMultilevel, Point: -1}
		}
	}
	return res, nil
}
