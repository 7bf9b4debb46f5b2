package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/faultinject"
)

// Sweep names a steady-state iteration scheme. Gauss-Seidel is the only
// one. The type stays only because the perfbench harness reads
// SolveAttempt.Sweep.String() to count solves per scheme; it goes when
// the harness stops reading it.
type Sweep int

// SweepGaussSeidel is the sequential Gauss-Seidel sweep.
const SweepGaussSeidel Sweep = 1

// String returns the scheme's canonical name.
func (s Sweep) String() string {
	if s == SweepGaussSeidel {
		return "gauss-seidel"
	}
	return fmt.Sprintf("Sweep(%d)", int(s))
}

// SolveOptions tunes the steady-state solver. The solver is sequential,
// so there is no worker count: a solve's result is a function of the
// chain and these options alone, Ctx only stopping it early.
type SolveOptions struct {
	// Tolerance is the convergence threshold on the max relative change
	// per sweep (default DefaultTolerance).
	Tolerance float64
	// MaxIterations bounds the sweeps (default 200000).
	MaxIterations int
	// Ctx optionally makes the solve cancelable: the sweeps poll it at
	// every iteration boundary and return a *fault.CanceledError carrying
	// the interrupted iteration. Polling never changes the floats of a
	// solve that runs to completion. nil disables polling.
	Ctx context.Context
}

// DefaultTolerance is the convergence threshold a zero
// SolveOptions.Tolerance selects.
const DefaultTolerance = 1e-12

// ErrNoConvergence reports that the iterative solver hit its iteration
// bound.
var ErrNoConvergence = errors.New("ctmc: steady-state solver did not converge")

// ConvergenceError is the concrete failure a solve returns when the
// iteration gives up: it wraps ErrNoConvergence (so errors.Is keeps
// working) and carries the iteration count and the last residual, making
// sweep failures diagnosable at the call site.
type ConvergenceError struct {
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the max relative change of the last sweep.
	Residual float64
	// Tolerance is the convergence threshold that was not reached.
	Tolerance float64
	// Point is the sweep-point index the failed solve belongs to, or -1
	// when the solve was not part of a sweep. SolveBatchLanes sets it to
	// the batch-local lane; pipeline.Session.Sweep rewrites it to the global
	// sweep-point index, so a failed point in a 100-point grid is
	// identifiable from the error alone.
	Point int
	// Params is the rate-slot vector of the failed sweep point (nil
	// outside sweeps).
	Params []float64
}

// Error implements the error interface.
func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("%v after %d iterations (gauss-seidel sweep, residual %.3g, tolerance %.3g)",
		ErrNoConvergence, e.Iterations, e.Residual, e.Tolerance)
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
// defaults; SteadyStateTraced and SolveBatchLanes resolve them
// identically so a batched lane runs under exactly the configuration a
// solo solve would.
func solveDefaults(opts SolveOptions) SolveOptions {
	if opts.Tolerance <= 0 {
		opts.Tolerance = DefaultTolerance
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 200000
	}
	return opts
}

// SolveAttempt records one converged steady-state solve.
type SolveAttempt struct {
	// Sweep is always SweepGaussSeidel. It stays only because the
	// perfbench harness counts solves by Sweep.String(); it goes with
	// Cycles when the harness stops reading them.
	Sweep Sweep
	// MaxIterations is the solve's resolved iteration budget.
	MaxIterations int
	// Iterations and Residual are the sweep count and final residual at
	// convergence.
	Iterations int
	Residual   float64
	// Cycles is always 0: Gauss-Seidel has no outer loop. Like Sweep it
	// stays only because the perfbench harness reads it.
	Cycles int
}

// SolveTrace wraps the one attempt of a solve. A solve is a single
// attempt, so the slice and Escalated stay only because the perfbench
// harness counts Attempts and reads Escalated, like Sweep and Cycles.
type SolveTrace struct {
	// Attempts holds the solve's one attempt.
	Attempts []SolveAttempt
}

// Escalated is always false: no solve is retried. It stays only because
// the perfbench harness reads it (on nil traces too).
func (t *SolveTrace) Escalated() bool { return false }

// SteadyStateTraced computes the long-run probability distribution over
// tangible states at the chain's current rates, with a one-attempt trace
// of the converged solve: its iterations, final residual and iteration
// budget. The chain may be reducible as long as a single bottom strongly
// connected component is reachable from the initial distribution (the
// usual case for models with a start-up transient); probability then
// concentrates on that component. A failed solve returns its
// *ConvergenceError and no trace; the remedy for a budget too small is a
// larger MaxIterations.
//
// The solve is a one-lane batch: the chain's current rates fill lane 0
// of the four-lane kernel, which then sweeps exactly as for a batched
// lane.
func (c *CTMC) SteadyStateTraced(opts SolveOptions) ([]float64, *SolveTrace, error) {
	opts = solveDefaults(opts)
	plan, err := c.ensurePlan()
	if err != nil {
		return nil, nil, err
	}

	// An absorbing single state gets all the probability.
	pi := make([]float64, c.N)
	var st solveStats
	if len(plan.target) == 1 {
		pi[plan.target[0]] = 1
	} else {
		res, err := c.fillCurrent(plan).gaussSeidelBatch(opts, uniformStart(len(plan.target)))
		if err != nil {
			return nil, nil, err
		}
		if res[0].err != nil {
			return nil, nil, res[0].err
		}
		for j, s := range plan.target {
			pi[s] = res[0].x[j]
		}
		st = res[0].st
	}
	return pi, &SolveTrace{Attempts: []SolveAttempt{{
		Sweep:         SweepGaussSeidel,
		MaxIterations: opts.MaxIterations,
		Iterations:    st.Iterations,
		Residual:      st.Residual,
	}}}, nil
}

// solveStats summarizes a converged solve for the trace: the sweep count
// and the final residual.
type solveStats struct {
	Iterations int
	Residual   float64
}

// residualGuard is the conservative skip margin of the running-residual
// update: a row's relative step d/m is divided out only when d exceeds
// the current maximum scaled by m and shrunk by a few ulps. When the
// guard rejects, fl(d/m) provably cannot exceed the running maximum
// (d ≤ fl(fl(max·m)·guard) implies d/m ≤ max·(1−10⁻¹³)·(1+3ε) < max), so
// the final residual is the exact maximum of the per-row fl(d/m) values —
// independent of which rows happened to divide.
const residualGuard = 1 - 1e-13

// solvePlan caches the structural half of a steady-state solve: the
// reachable bottom component in sweep order and the incoming-CSR index
// skeleton of its balance equations, plus the traversal metadata that
// lets a solve — or a batched solve — gather the chain's current rate
// values into that skeleton without re-running Tarjan, reachability, or
// the fill-position computation. The analysis depends only on the
// chain's structure (state classification, row columns, initial
// support), which a rate-only Rebind provably preserves: every slot
// value is validated positive and finite, so no edge appears or
// disappears. One plan therefore serves every rebind of a chain and all
// its Clones; it is computed lazily on first solve and shared by pointer
// across clones.
type solvePlan struct {
	once sync.Once
	err  error

	// target is the reachable bottom SCC in ascending tangible index, the
	// order every Gauss-Seidel sweep visits its rows. It depends on the
	// component's states alone, not on edge order; local indexing and
	// every floating-point accumulation follow it.
	target []int
	// inStart/inOff are the component's incoming CSR index arrays: the
	// incoming edges of local state j are inOff[inStart[j]:inStart[j+1]],
	// each stored as its source row's element offset in the iterate slab
	// (local index times BatchLanes), so a sweep addresses the source row
	// without scaling the index. They are shared read-only by every
	// solve; the per-solve rate values are gathered by fillCurrent (or
	// fillBatch) into fresh arrays.
	inStart []int32
	inOff   []int32
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
	// inStart, inOff) for the debug assertion that a rate-only rebind
	// left the structure untouched.
	hash uint64
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
	// Sweep in ascending tangible index, the generator's breadth-first
	// order: a row then mostly reads predecessors this sweep has already
	// updated, which Tarjan's pop order does not give.
	slices.Sort(target)
	p.target = target
	if len(target) > math.MaxInt32/BatchLanes {
		// The int32 slab offsets of inOff could not address such a row.
		p.err = fmt.Errorf("ctmc: bottom component of %d states is too large to solve", len(target))
		return
	}
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
		p.inOff = make([]int32, p.inStart[len(target)])
		p.fillPos = make([]int32, 0, len(p.inOff))
		fill := make([]int32, len(target))
		copy(fill, p.inStart[:len(target)])
		for _, s := range target {
			for _, e := range c.Rows[s] {
				if inComp[e.Col] {
					j := local[e.Col]
					p.inOff[fill[j]] = local[s] * BatchLanes
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
	for _, v := range p.inOff {
		mix(uint64(uint32(v)))
	}
	p.hash = h
}

// debugCheckPlan recomputes the structural analysis from scratch and
// compares its fingerprint with the cached plan's. Rebind calls it when
// debugChecks is set: a rate-only rebind must leave reachability and
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

// uniformStart returns the uniform distribution over n component states,
// the start vector of every solve.
func uniformStart(n int) []float64 {
	x := make([]float64, n)
	for j := range x {
		x[j] = 1 / float64(n)
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
