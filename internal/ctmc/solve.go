package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/faultinject"
)

// Sweep selects the iteration scheme SteadyState uses on the recurrent
// component.
type Sweep int

const (
	// SweepAuto picks the scheme by an explicit, scheduling-independent
	// rule, identical in the solo and batched paths:
	//
	//  1. Jacobi for components of at least JacobiThreshold states when
	//     more than one worker is available (where the parallel sweep
	//     pays off), or of at least JacobiThreshold×16 states even with
	//     one worker (where the batched/tiled kernels' cache behavior
	//     pays off regardless of parallelism), falling back to
	//     Gauss-Seidel if Jacobi fails to converge;
	//  2. Gauss-Seidel otherwise;
	//  3. on components of at least 64 states, a fixed sequential
	//     Gauss-Seidel probe (24 sweeps on a copy of the start vector)
	//     first tests for stalled residual decay; a stalled component is
	//     solved with SweepMultilevel instead of rule 1/2. The probe is a
	//     pure function of the chain and the start vector — never of
	//     Workers or lane packing — and discards its iterate, so a
	//     non-stalled solve is bit-identical to the pre-probe behavior.
	SweepAuto Sweep = iota
	// SweepGaussSeidel forces the sequential Gauss-Seidel sweep.
	SweepGaussSeidel
	// SweepJacobi forces the damped Jacobi sweep, whose row updates are
	// independent and therefore partition across workers while staying
	// bit-identical at any worker count.
	SweepJacobi
	// SweepMultilevel forces the two-level iterative aggregation/
	// disaggregation (IAD) outer loop: Gauss-Seidel pre-smoothing, an
	// exact (GTH) solve of the chain aggregated by a deterministic
	// coarsening partition, disaggregation by within-block conditional
	// redistribution, and Gauss-Seidel post-smoothing, with convergence
	// tested on the fine-level residual at post-smoothing sweeps only.
	// Near-completely-decomposable chains (long dwell times, rare
	// cross-cluster transitions — the DPM sleep/wake structure) converge
	// in a bounded number of cycles where plain sweeps need O(1/ε)
	// iterations. The smoother is always sequential Gauss-Seidel, so the
	// result is bit-identical at any worker count by construction.
	SweepMultilevel
)

// String returns the sweep mode's canonical name.
func (s Sweep) String() string {
	switch s {
	case SweepGaussSeidel:
		return "gauss-seidel"
	case SweepJacobi:
		return "jacobi"
	case SweepMultilevel:
		return "multilevel"
	default:
		return "auto"
	}
}

// SolveOptions tunes the steady-state solver.
type SolveOptions struct {
	// Tolerance is the convergence threshold on the max relative change
	// per sweep (default 1e-12).
	Tolerance float64
	// MaxIterations bounds the sweeps (default 200000).
	MaxIterations int
	// Sweep selects the iteration scheme (default SweepAuto: Jacobi when
	// the component reaches JacobiThreshold states and more than one
	// worker is available, Gauss-Seidel otherwise).
	Sweep Sweep
	// Workers bounds the Jacobi worker pool (0 = GOMAXPROCS). The solver
	// result is bit-identical at any value: each row's inflow is summed in
	// its fixed CSR order regardless of which worker owns the row, and the
	// normalization sum is one canonical sequential pass.
	Workers int
	// JacobiThreshold is the component size at which SweepAuto switches
	// from Gauss-Seidel to Jacobi (default 1024).
	JacobiThreshold int
	// WarmStart optionally seeds the iteration with a previous solution: a
	// distribution over all tangible states (length N), typically the
	// steady state of the same chain at nearby rate values. The solver
	// projects it onto the recurrent component and renormalizes; when the
	// length is wrong or the projection carries no mass it falls back to
	// the uniform start. Warm-starting changes the iteration trajectory —
	// and with it the last bits of the converged vector — so deterministic
	// sweeps must derive the seed deterministically: solve one designated
	// anchor point cold and seed every other point from the anchor's
	// solution, independent of worker count and scheduling (see
	// pipeline.Session.Sweep).
	WarmStart []float64
	// Ctx optionally makes the solve cancelable: the sweeps poll it at
	// every iteration boundary and return a *fault.CanceledError carrying
	// the interrupted iteration. Polling never changes the floats of a
	// solve that runs to completion. nil disables polling.
	Ctx context.Context
	// Omega overrides the sweep's damping factor: the row update becomes
	// x' = (1-ω)·x + ω·inflow/exit. 0 selects the scheme default (1 for
	// Gauss-Seidel — the plain update, taken on a branch that performs no
	// extra arithmetic — and jacobiOmega for Jacobi). The escalation
	// ladder halves it on its increase-damping rung; callers normally
	// leave it 0.
	Omega float64
	// Escalation selects what SteadyStateTraced does when the configured
	// solve fails with a ConvergenceError: EscalateNever (the default)
	// surfaces the error; EscalateLadder deterministically retries
	// through the fixed ladder described in Escalation's docs, recording
	// every rung in the returned SolveTrace. Plain SteadyState ignores
	// the field (it is the ladder's base attempt).
	Escalation Escalation
}

// ErrNoConvergence reports that the iterative solver hit its iteration
// bound.
var ErrNoConvergence = errors.New("ctmc: steady-state solver did not converge")

// ConvergenceError is the concrete failure SteadyState returns when the
// iteration gives up: it wraps ErrNoConvergence (so errors.Is keeps
// working) and carries the sweep mode, the iteration count, and the last
// residual, making sweep failures diagnosable at the call site.
type ConvergenceError struct {
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the max relative change of the last sweep.
	Residual float64
	// Tolerance is the convergence threshold that was not reached.
	Tolerance float64
	// Sweep is the iteration scheme that failed (SweepGaussSeidel,
	// SweepJacobi, or SweepMultilevel, never SweepAuto).
	Sweep Sweep
	// Cycles is the number of multilevel outer cycles performed (0 for
	// the plain sweeps).
	Cycles int
	// Point is the sweep-point index the failed solve belongs to, or -1
	// when the solve was not part of a sweep. SolveBatch sets it to the
	// batch-local lane; pipeline.Session.Sweep rewrites it to the global
	// sweep-point index, so a failed point in a 100-point grid is
	// identifiable from the error alone.
	Point int
	// Params is the rate-slot vector of the failed sweep point (nil
	// outside sweeps).
	Params []float64
}

// Error implements the error interface.
func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("%v after %d iterations (%s sweep, residual %.3g, tolerance %.3g)",
		ErrNoConvergence, e.Iterations, e.Sweep, e.Residual, e.Tolerance)
	if e.Sweep == SweepMultilevel {
		msg += fmt.Sprintf(" in %d cycles", e.Cycles)
	}
	if e.Point >= 0 {
		msg += fmt.Sprintf(" at sweep point %d", e.Point)
		if e.Params != nil {
			msg += fmt.Sprintf(" %v", e.Params)
		}
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrNoConvergence) hold.
func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// solveDefaults fills the zero-value solver options with the documented
// defaults; SteadyState and SolveBatch resolve them identically so a
// batched lane runs under exactly the configuration a solo solve would.
func solveDefaults(opts SolveOptions) SolveOptions {
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-12
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 200000
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.JacobiThreshold <= 0 {
		opts.JacobiThreshold = 1024
	}
	return opts
}

// jacobiSoloFactor scales JacobiThreshold for the single-worker clause of
// the SweepAuto rule: with one worker the Jacobi pool wins nothing from
// parallelism, but on a huge component its tiled, cache-blocked kernels
// still beat the sequential sweep's strided reads, so auto mode picks
// Jacobi anyway once the component reaches JacobiThreshold×16 states.
const jacobiSoloFactor = 16

// resolveSweep applies the static half of the SweepAuto rule (rules 1 and
// 2 of the SweepAuto docs) to the resolved options: Jacobi when the
// component is large enough to amortize the pool (JacobiThreshold states
// with more than one worker, JacobiThreshold×jacobiSoloFactor with one),
// Gauss-Seidel otherwise. The dynamic half — the stalled-decay probe that
// upgrades to SweepMultilevel — runs inside the solve, because it needs
// the component's rates; see steadyStateStats and SolveBatchLanes.
func resolveSweep(opts SolveOptions, componentSize int) Sweep {
	if opts.Sweep != SweepAuto {
		return opts.Sweep
	}
	if componentSize >= opts.JacobiThreshold && opts.Workers > 1 {
		return SweepJacobi
	}
	if componentSize >= opts.JacobiThreshold*jacobiSoloFactor {
		return SweepJacobi
	}
	return SweepGaussSeidel
}

// SteadyState computes the long-run probability distribution over tangible
// states. The chain may be reducible as long as a single bottom strongly
// connected component is reachable from the initial distribution (the
// usual case for models with a start-up transient); probability then
// concentrates on that component.
func (c *CTMC) SteadyState(opts SolveOptions) ([]float64, error) {
	pi, _, err := c.steadyStateStats(opts)
	return pi, err
}

// solveStats summarizes a converged solve for the trace: the scheme that
// actually ran (after auto resolution, fallback, and the multilevel
// upgrade), the fine-level sweep count, the multilevel cycle count (0 for
// plain sweeps), and the final residual.
type solveStats struct {
	Sweep      Sweep
	Iterations int
	Cycles     int
	Residual   float64
}

// steadyStateStats is SteadyState plus the solve statistics of the
// successful attempt (SteadyStateTraced records them in the trace).
func (c *CTMC) steadyStateStats(opts SolveOptions) ([]float64, solveStats, error) {
	var st solveStats
	opts = solveDefaults(opts)
	plan, err := c.ensurePlan()
	if err != nil {
		return nil, st, err
	}

	// An absorbing single state gets all the probability.
	pi := make([]float64, c.N)
	if len(plan.target) == 1 {
		pi[plan.target[0]] = 1
		st.Sweep = SweepGaussSeidel
		return pi, st, nil
	}

	comp := c.fillComponent(plan)
	start := uniformStart(comp.n)
	if len(opts.WarmStart) == c.N {
		if ws := projectStart(opts.WarmStart, plan.target); ws != nil {
			start = ws
		}
	}
	sweep := resolveSweep(opts, len(plan.target))
	if opts.Sweep == SweepAuto && comp.n >= multilevelAutoMin && comp.stalledGS(opts, start) {
		// Rule 3 of the SweepAuto docs: stalled residual decay means the
		// plain sweeps would crawl toward the budget; the multilevel outer
		// loop attacks exactly that regime. The probe ran on a copy, so
		// the non-stalled path below computes pre-probe floats.
		sweep = SweepMultilevel
	}
	var x []float64
	switch sweep {
	case SweepMultilevel:
		x, st, err = comp.multilevel(opts, start, c.ensureCoarse(plan))
	case SweepJacobi:
		x, st, err = comp.jacobi(opts, start)
		if err != nil && opts.Sweep == SweepAuto && errors.Is(err, ErrNoConvergence) {
			// Auto mode falls back to the sequential sweep: Gauss-Seidel's
			// sequential substitution converges on chains where even the
			// damped simultaneous update crawls.
			x, st, err = comp.gaussSeidel(opts, start)
		}
	default:
		x, st, err = comp.gaussSeidel(opts, start)
	}
	if err != nil && opts.Sweep == SweepAuto && sweep != SweepMultilevel &&
		comp.n >= multilevelAutoMin && errors.Is(err, ErrNoConvergence) {
		// The stall probe is a 24-sweep heuristic: a chain whose slow mode
		// only emerges after the probe window exhausts the plain scheme's
		// budget anyway, so auto mode retries it with the multilevel cycle
		// from the original start — auto is never worse than the plain
		// sweeps for the price of one extra attempt on failures.
		x, st, err = comp.multilevel(opts, start, c.ensureCoarse(plan))
	}
	if err != nil {
		return nil, st, err
	}
	for j, s := range plan.target {
		pi[s] = x[j]
	}
	return pi, st, nil
}

// component is the recurrent component in local coordinates: the balance
// equations pi_j * exit_j = sum_{i -> j} pi_i * q_ij restricted to the
// component, with the incoming adjacency flattened CSR-style — the
// incoming edges of local state j are inFrom/inRate[inStart[j]:
// inStart[j+1]]. Two flat arrays instead of a slice-of-slices keep the
// per-sweep inner loop on contiguous memory and cost a handful of
// allocations per solve, however often a sweep rebuilds the chain.
type component struct {
	n       int
	inStart []int32
	inFrom  []int32
	inRate  []float64
	exit    []float64
	// invExit is 1/exit (0 where exit is 0), computed once per fill: the
	// sweeps' per-row division is a multiplication by the reciprocal, paid
	// once per solve instead of once per row per iteration.
	invExit []float64
}

// residualGuard is the conservative skip margin of the running-residual
// update: a row's relative step d/m is divided out only when d exceeds
// the current maximum scaled by m and shrunk by a few ulps. When the
// guard rejects, fl(d/m) provably cannot exceed the running maximum
// (d ≤ fl(fl(max·m)·guard) implies d/m ≤ max·(1−10⁻¹³)·(1+3ε) < max), so
// the final residual is the exact maximum of the per-row fl(d/m) values —
// independent of which rows happened to divide, and hence of any row
// partition across Jacobi workers or batch tiles.
const residualGuard = 1 - 1e-13

// solvePlan caches the structural half of a steady-state solve: the
// reachable bottom component and the incoming-CSR index skeleton of its
// balance equations, plus the traversal metadata that lets a solve — or a
// batched solve — gather the chain's current rate values into that
// skeleton without re-running Tarjan, reachability, or the fill-position
// computation. The analysis depends only on the chain's structure (state
// classification, row columns, initial support), which a rate-only Rebind
// provably preserves: every slot value is validated positive and finite,
// so no edge appears or disappears. One plan therefore serves every
// rebind of a chain and all its Clones; it is computed lazily on first
// solve and shared by pointer across clones.
type solvePlan struct {
	once sync.Once
	err  error

	// target is the reachable bottom SCC in its Tarjan emission order —
	// the same order the uncached solver produced, so local indexing and
	// every downstream floating-point accumulation are unchanged.
	target []int
	// inStart/inFrom are the component's incoming CSR index arrays: the
	// incoming edges of local state j are inFrom[inStart[j]:inStart[j+1]].
	// They are shared read-only by every solve; the per-solve rate values
	// are gathered by fillComponent (or fillBatch) into fresh arrays.
	inStart []int32
	inFrom  []int32
	// fillPos maps the canonical traversal — target rows in order, row
	// entries in column-ascending order — to positions in the incoming
	// rate array: traversal step t writes its entry's rate at fillPos[t]
	// (-1 for an entry leaving the component, which a bottom SCC never
	// has; kept for defensiveness).
	fillPos []int32
	// rowEntryBase[li] is the global generator-entry index (row-major over
	// all tangible rows) of the first entry of target row li, which gives
	// batched solves the termStart window of any component entry.
	rowEntryBase []int32
	// hash fingerprints the structural analysis (FNV-1a over target,
	// inStart, inFrom) for the debug assertion that a rate-only rebind
	// left the structure untouched.
	hash uint64

	// coarse is the multilevel solver's cached coarse operator (see
	// multilevel.go), built lazily on first multilevel solve: the
	// coarsening partition is a pure function of the built structure and
	// the canonical-point rates, so — like the rest of the plan — it is
	// shared by every clone and survives rate-only Rebinds, which
	// re-aggregate rates through coarsePlan.cell in O(edges).
	coarseOnce sync.Once
	coarse     *coarsePlan
}

// ensurePlan returns the chain's cached solve plan, computing it on first
// use. Clones share the plan pointer, so the analysis runs once per built
// structure however many clones sweep it concurrently (sync.Once).
func (c *CTMC) ensurePlan() (*solvePlan, error) {
	p := c.plan
	if p == nil {
		// Chains assembled without Build (tests) get a private holder.
		p = &solvePlan{}
		c.plan = p
	}
	p.once.Do(func() { p.build(c) })
	return p, p.err
}

// build runs the structural analysis: bottom SCCs, reachability, target
// selection, and the component's incoming-CSR skeleton. It reads only
// structure (row columns, initial support) — never rate values.
func (p *solvePlan) build(c *CTMC) {
	bsccs := c.bottomSCCs()
	reached := c.reachableFromInitial()
	var target []int
	for _, comp := range bsccs {
		if reached[comp[0]] {
			if target != nil {
				p.err = ErrMultipleBSCC
				return
			}
			target = comp
		}
	}
	if target == nil {
		p.err = fmt.Errorf("ctmc: no reachable bottom component (internal error)")
		return
	}
	p.target = target
	if len(target) > 1 {
		inComp := make([]bool, c.N)
		local := make([]int32, c.N) // global -> local index
		for li, s := range target {
			inComp[s] = true
			local[s] = int32(li)
		}
		p.inStart = make([]int32, len(target)+1)
		for _, s := range target {
			for _, e := range c.Rows[s] {
				if inComp[e.Col] {
					p.inStart[local[e.Col]+1]++
				}
			}
		}
		for j := 0; j < len(target); j++ {
			p.inStart[j+1] += p.inStart[j]
		}
		p.inFrom = make([]int32, p.inStart[len(target)])
		p.fillPos = make([]int32, 0, len(p.inFrom))
		fill := make([]int32, len(target))
		copy(fill, p.inStart[:len(target)])
		for _, s := range target {
			for _, e := range c.Rows[s] {
				if inComp[e.Col] {
					j := local[e.Col]
					p.inFrom[fill[j]] = local[s]
					p.fillPos = append(p.fillPos, fill[j])
					fill[j]++
				} else {
					p.fillPos = append(p.fillPos, -1)
				}
			}
		}
		// Global entry index of each target row's first entry, for term
		// lookups in batched solves.
		base := int32(0)
		baseOf := make([]int32, c.N)
		for s := 0; s < c.N; s++ {
			baseOf[s] = base
			base += int32(len(c.Rows[s]))
		}
		p.rowEntryBase = make([]int32, len(target))
		for li, s := range target {
			p.rowEntryBase[li] = baseOf[s]
		}
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211 // FNV-1a prime
			v >>= 8
		}
	}
	for _, s := range p.target {
		mix(uint64(s))
	}
	for _, v := range p.inStart {
		mix(uint64(uint32(v)))
	}
	for _, v := range p.inFrom {
		mix(uint64(uint32(v)))
	}
	p.hash = h
}

// debugCheckPlan recomputes the structural analysis from scratch and
// compares its fingerprint with the cached plan's. Rebind calls it when
// EnableDebugChecks is set: a rate-only rebind must leave reachability and
// SCC structure — and therefore the cached plan — untouched.
func (c *CTMC) debugCheckPlan() error {
	p, err := c.ensurePlan()
	if err != nil {
		return nil // the cached analysis failed; nothing to compare
	}
	fresh := &solvePlan{}
	fresh.build(c)
	if fresh.err != nil {
		return fmt.Errorf("ctmc: structural solve analysis fails after a rate-only rebind: %w", fresh.err)
	}
	if fresh.hash != p.hash {
		return fmt.Errorf("ctmc: structural solve plan changed across a rate-only rebind (hash %#x -> %#x)", p.hash, fresh.hash)
	}
	return nil
}

// InvalidatePlan drops this handle's cached structural solve analysis; the
// next solve recomputes it. Rate-only rebinds never need this — the
// analysis is structural and rebinds cannot change it — but callers that
// mutate Rows directly (tests), and benchmarks that measure the uncached
// per-solve path, use it. Clones keep the plan they already share.
func (c *CTMC) InvalidatePlan() { c.plan = &solvePlan{} }

// StructuralHash returns the FNV-1a fingerprint of the chain's structural
// solve analysis (recurrent component and incoming-CSR skeleton),
// computing the analysis on first use. Rate-only rebinds cannot change
// it, so it identifies "the same chain structure" across processes —
// the identity the sweep checkpoints verify before resuming.
func (c *CTMC) StructuralHash() (uint64, error) {
	p, err := c.ensurePlan()
	if err != nil {
		return 0, err
	}
	return p.hash, nil
}

// fillComponent gathers the chain's current rate values into the plan's
// component skeleton. The traversal replays the uncached builder's fill
// loop — target rows in order, entries in column-ascending order — so the
// inRate array is element-for-element identical to the one a from-scratch
// component build produces.
func (c *CTMC) fillComponent(p *solvePlan) *component {
	comp := &component{
		n:       len(p.target),
		inStart: p.inStart,
		inFrom:  p.inFrom,
		inRate:  make([]float64, len(p.inFrom)),
		exit:    make([]float64, len(p.target)),
		invExit: make([]float64, len(p.target)),
	}
	t := 0
	for _, s := range p.target {
		for _, e := range c.Rows[s] {
			if pos := p.fillPos[t]; pos >= 0 {
				comp.inRate[pos] = e.Rate
			}
			t++
		}
	}
	for li, s := range p.target {
		comp.exit[li] = c.Exit[s]
		if comp.exit[li] > 0 {
			comp.invExit[li] = 1 / comp.exit[li]
		}
	}
	return comp
}

// uniformStart returns the default uniform starting vector over n states.
func uniformStart(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	return x
}

// projectStart restricts a warm-start distribution over all tangible
// states to the recurrent component's local coordinates and renormalizes
// it. It returns nil when the projection carries no positive mass (or any
// non-finite value), in which case the caller falls back to the uniform
// start.
func projectStart(ws []float64, target []int) []float64 {
	x := make([]float64, len(target))
	sum := 0.0
	for j, s := range target {
		v := ws[s]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil
		}
		x[j] = v
		sum += v
	}
	if !(sum > 0) {
		return nil
	}
	for j := range x {
		x[j] /= sum
	}
	return x
}

// pollSolve is the per-iteration cancellation point shared by the solver
// sweeps: it consults the fault-injection iteration site (whose OnFire
// callback is how tests cancel at an exact iteration) and then polls the
// cached done channel. It returns a *fault.CanceledError naming the
// interrupted iteration, or nil.
func pollSolve(ctx context.Context, done <-chan struct{}, iter int) error {
	faultinject.Fire(faultinject.SiteSolveIteration, iter)
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return &fault.CanceledError{Phase: "ctmc.steady-state", Point: -1, Iteration: iter, Err: ctx.Err()}
	default:
		return nil
	}
}

// cancelChan returns the context's done channel, or nil for a nil
// context, so the sweeps' per-iteration poll is a nil check when
// cancellation is not in play.
func cancelChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// gsSweepOnce performs one in-place Gauss-Seidel sweep over the component
// and returns the sweep's guarded max relative change — the solo
// gaussSeidel inner loop verbatim, factored out so the multilevel
// smoother and the stall probe run the identical floating-point sequence.
func (p *component) gsSweepOnce(x []float64, omega float64) float64 {
	maxDelta := 0.0
	for j := 0; j < p.n; j++ {
		if p.exit[j] <= 0 {
			continue
		}
		inflow := 0.0
		for k := p.inStart[j]; k < p.inStart[j+1]; k++ {
			inflow += x[p.inFrom[k]] * p.inRate[k]
		}
		next := inflow * p.invExit[j]
		if omega != 1 {
			next = (1-omega)*x[j] + omega*next
		}
		d := math.Abs(next - x[j])
		if m := math.Max(next, 1e-300); d > maxDelta*m*residualGuard {
			if rel := d / m; rel > maxDelta {
				maxDelta = rel
			}
		}
		x[j] = next
	}
	return maxDelta
}

// sumNormalize rescales x to sum 1 with the canonical sequence — one
// sequential sum, one reciprocal, one multiply pass — and reports whether
// the mass was positive (false leaves x untouched and means the iteration
// collapsed).
func sumNormalize(x []float64) bool {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum <= 0 {
		return false
	}
	inv := 1 / sum
	for j := range x {
		x[j] *= inv
	}
	return true
}

// gaussSeidel runs the sequential Gauss-Seidel sweep from the given
// starting vector: each row update reads the in-place vector, so updates
// within a sweep feed forward. A non-default opts.Omega damps the update;
// at the default ω = 1 the plain update is taken on a branch that
// performs no extra floating-point operation, so results are bit-for-bit
// those of the undamped sweep.
func (p *component) gaussSeidel(opts SolveOptions, start []float64) ([]float64, solveStats, error) {
	var st solveStats
	x := append([]float64(nil), start...)
	omega := opts.Omega
	if omega == 0 {
		omega = 1
	}
	done := cancelChan(opts.Ctx)
	maxDelta := math.Inf(1)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if err := pollSolve(opts.Ctx, done, iter); err != nil {
			return nil, st, err
		}
		maxDelta = p.gsSweepOnce(x, omega)
		// Normalize to avoid drift: one canonical sequential sum, one
		// reciprocal, one multiply pass.
		if !sumNormalize(x) {
			return nil, st, &ConvergenceError{Iterations: iter + 1, Residual: maxDelta, Tolerance: opts.Tolerance, Sweep: SweepGaussSeidel, Point: -1}
		}
		if maxDelta < opts.Tolerance {
			return x, solveStats{Sweep: SweepGaussSeidel, Iterations: iter + 1, Residual: maxDelta}, nil
		}
	}
	return nil, st, &ConvergenceError{Iterations: opts.MaxIterations, Residual: maxDelta, Tolerance: opts.Tolerance, Sweep: SweepGaussSeidel, Point: -1}
}

// jacobiOmega damps the Jacobi update: x' = (1-ω)·x + ω·inflow/exit.
// Undamped Jacobi is the power method on the embedded jump chain (in flow
// coordinates) and oscillates forever when that chain is periodic — which
// birth-death-like queueing chains are. Damping with ω = 1/2 iterates the
// lazy chain instead, whose spectrum lies strictly inside the unit disk
// away from 1, so the sweep converges to the same fixed point.
const jacobiOmega = 0.5

// jacobi runs the damped Jacobi sweep. Every row update reads only the
// previous sweep's vector, so rows partition freely across workers; the
// per-row inflow is summed in its fixed CSR order no matter which worker
// owns the row, maxDelta is an order-independent max-reduction over
// per-block maxima, and the normalization sum is one canonical sequential
// pass — the iterate is bit-identical at any worker count.
func (p *component) jacobi(opts SolveOptions, start []float64) ([]float64, solveStats, error) {
	var st solveStats
	x := append([]float64(nil), start...)
	next := make([]float64, p.n)
	omega := opts.Omega
	if omega == 0 {
		omega = jacobiOmega
	}
	done2 := cancelChan(opts.Ctx)

	workers := opts.Workers
	if workers > p.n {
		workers = p.n
	}
	blockSize := (p.n + workers - 1) / workers
	nblocks := (p.n + blockSize - 1) / blockSize
	blockDelta := make([]float64, nblocks)

	sweepBlock := func(b int) {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > p.n {
			hi = p.n
		}
		d := 0.0
		for j := lo; j < hi; j++ {
			nx := x[j]
			if p.exit[j] > 0 {
				inflow := 0.0
				for k := p.inStart[j]; k < p.inStart[j+1]; k++ {
					inflow += x[p.inFrom[k]] * p.inRate[k]
				}
				nx = (1-omega)*x[j] + omega*(inflow*p.invExit[j])
			}
			dd := math.Abs(nx - x[j])
			if m := math.Max(nx, 1e-300); dd > d*m*residualGuard {
				if rel := dd / m; rel > d {
					d = rel
				}
			}
			next[j] = nx
		}
		blockDelta[b] = d
	}

	// Block tasks run behind the shared panic guard — on the pool and on
	// the single-block inline path alike — so a panicking row surfaces as
	// a *fault.WorkerPanicError naming the block, with the lowest block
	// index winning when several blocks panic in one sweep, instead of
	// killing the process. A recovered worker still reports its block on
	// the done channel, so the dispatcher's drain never wedges.
	var (
		panicMu  sync.Mutex
		panicIdx = nblocks
		panicErr error
	)
	runBlock := func(w, b int) {
		err := fault.Guard("ctmc.jacobi", w, fmt.Sprintf("block %d", b), func() error {
			faultinject.MaybePanic(faultinject.SiteJacobiBlock, b)
			sweepBlock(b)
			return nil
		})
		if err != nil {
			panicMu.Lock()
			if panicErr == nil || b < panicIdx {
				panicIdx, panicErr = b, err
			}
			panicMu.Unlock()
		}
	}

	// Persistent pool: workers stay parked on the work channel between
	// sweeps, so a sweep costs two channel hops per block instead of a
	// goroutine spawn. The channel operations order each sweep's vector
	// swap before the block work and the block work before the reduction.
	var work, done chan int
	if nblocks > 1 {
		work = make(chan int)
		done = make(chan int)
		for w := 0; w < workers; w++ {
			go func(w int) {
				for b := range work {
					runBlock(w, b)
					done <- b
				}
			}(w)
		}
		defer close(work)
	}

	maxDelta := math.Inf(1)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if err := pollSolve(opts.Ctx, done2, iter); err != nil {
			return nil, st, err
		}
		if nblocks > 1 {
			for b := 0; b < nblocks; b++ {
				work <- b
			}
			for b := 0; b < nblocks; b++ {
				<-done
			}
		} else {
			runBlock(0, 0)
		}
		if panicErr != nil {
			return nil, st, panicErr
		}
		maxDelta = 0.0
		for _, d := range blockDelta {
			if d > maxDelta {
				maxDelta = d
			}
		}
		// Normalize to avoid drift: one canonical sequential sum.
		sum := 0.0
		for _, v := range next {
			sum += v
		}
		if sum <= 0 {
			return nil, st, &ConvergenceError{Iterations: iter + 1, Residual: maxDelta, Tolerance: opts.Tolerance, Sweep: SweepJacobi, Point: -1}
		}
		inv := 1 / sum
		for j := range next {
			next[j] *= inv
		}
		x, next = next, x
		if maxDelta < opts.Tolerance {
			return x, solveStats{Sweep: SweepJacobi, Iterations: iter + 1, Residual: maxDelta}, nil
		}
	}
	return nil, st, &ConvergenceError{Iterations: opts.MaxIterations, Residual: maxDelta, Tolerance: opts.Tolerance, Sweep: SweepJacobi, Point: -1}
}

// reachableFromInitial returns the set of tangible states reachable from
// the support of the initial distribution.
func (c *CTMC) reachableFromInitial() []bool {
	seen := make([]bool, c.N)
	var stack []int
	for s, p := range c.Initial {
		if p > 0 && !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range c.Rows[s] {
			if !seen[e.Col] {
				seen[e.Col] = true
				stack = append(stack, e.Col)
			}
		}
	}
	return seen
}

// bottomSCCs returns the strongly connected components of the tangible
// chain that have no outgoing edges (Tarjan, iterative).
func (c *CTMC) bottomSCCs() [][]int {
	n := c.N
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	var sccs [][]int
	counter := 0

	type frame struct {
		v, ei int
	}
	for start := 0; start < n; start++ {
		if index[start] >= 0 {
			continue
		}
		frames := []frame{{v: start}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(c.Rows[f.v]) {
				w := c.Rows[f.v][f.ei].Col
				f.ei++
				if index[w] < 0 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(sccs)
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	// Bottom components: no edge leaves the component.
	isBottom := make([]bool, len(sccs))
	for i := range isBottom {
		isBottom[i] = true
	}
	for s := 0; s < n; s++ {
		for _, e := range c.Rows[s] {
			if comp[e.Col] != comp[s] {
				isBottom[comp[s]] = false
			}
		}
	}
	var out [][]int
	for i, scc := range sccs {
		if isBottom[i] {
			out = append(out, scc)
		}
	}
	return out
}

// BottomSCCs returns the bottom strongly connected components of the
// tangible chain — useful for diagnosing reducible models.
func (c *CTMC) BottomSCCs() [][]int { return c.bottomSCCs() }
