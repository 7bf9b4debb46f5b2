// Batched-solver property tests live in the external test package with
// the other paper-chain tests: they build the paper's rate-parametric chains
// through internal/models.
package ctmc_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/models"
)

// rpcParamChain builds the revised rpc chain with the shutdown timeout as
// a rate slot (one slot, value 1/T).
func rpcParamChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	return chainOf(t, a)
}

// streamingParamChain builds the quick-scale streaming chain with the PSP
// awake period as a rate slot (one slot, value 1/P).
func streamingParamChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	return streamingParamChainCap(t, 3)
}

// streamingParamChainCap is streamingParamChain with both buffers of the
// given capacity.
func streamingParamChainCap(t *testing.T, capacity int64) *ctmc.CTMC {
	t.Helper()
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = capacity, capacity
	p.ParametricPeriod = true
	a, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	return chainOf(t, a)
}

// rpcPoints is an 8-point shutdown-timeout grid (slot value 1/T).
func rpcPoints() [][]float64 {
	out := make([][]float64, 0, 8)
	for _, T := range []float64{0.5, 1, 2, 5, 7.5, 10, 15, 25} {
		out = append(out, []float64{1 / T})
	}
	return out
}

// streamingPoints is an 8-point awake-period grid (slot value 1/P).
func streamingPoints() [][]float64 {
	out := make([][]float64, 0, 8)
	for _, P := range []float64{5, 25, 50, 100, 200, 400, 600, 800} {
		out = append(out, []float64{1 / P})
	}
	return out
}

// staggeredChain builds the minimized 12×12 streaming chain with the PSP
// awake period as a rate slot. Its points need from about 140 sweeps (a
// period near 150 ms) to about 500 (near 1,500 ms), so the lanes of one
// batch over it deactivate far apart.
func staggeredChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	c, err := ctmc.Build(minimizedStreamingLTS(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// staggeredPoints is an 8-point awake-period grid on staggeredChain whose
// solo solves take 499, 161, 363, 171, 291, 141, 305 and 211 sweeps:
// a slow lane first, a fast one beside it, and in the second group of
// four the fastest point of the grid. Most counts end in 1: a lane
// usually converges on the sweep after an extrapolation step.
func staggeredPoints() [][]float64 {
	return rateGrid(1500, 100, 1000, 75, 5.2, 150, 800, 25)
}

// requireDistinctSweeps checks the premise of a mixed-convergence test:
// the solo solves of the points take pairwise different sweep counts, so
// every lane of a batch over them converges at its own sweep.
func requireDistinctSweeps(t *testing.T, c *ctmc.CTMC, points [][]float64) {
	t.Helper()
	seen := map[int]int{}
	for i, pt := range points {
		_, tr, err := boundChain(t, c, pt).SteadyStateTraced(ctmc.SolveOptions{})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		n := tr.Attempts[0].Iterations
		if j, dup := seen[n]; dup {
			t.Fatalf("premise broken: points %d and %d both converge after %d sweeps", j, i, n)
		}
		seen[n] = i
	}
}

// boundChain is the chain of c's system with every rate slot bound to
// the constant point[slot-1]: the reference chain of a batched lane.
func boundChain(t *testing.T, c *ctmc.CTMC, point []float64) *ctmc.CTMC {
	t.Helper()
	b, err := c.BoundForTest(point)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// solveSequential runs the reference chain per point: SteadyStateTraced
// on the chain built with the slots bound to the point, the exact path
// SolveBatch must reproduce bit for bit.
func solveSequential(t *testing.T, c *ctmc.CTMC, points [][]float64, opts ctmc.SolveOptions) [][]float64 {
	t.Helper()
	out := make([][]float64, len(points))
	for i, pt := range points {
		pi, _, err := boundChain(t, c, pt).SteadyStateTraced(opts)
		if err != nil {
			t.Fatalf("steady state point %d: %v", i, err)
		}
		out[i] = pi
	}
	return out
}

// batchInWidths solves the points through SolveBatch in chunks of the
// given lane width.
func batchInWidths(t *testing.T, c *ctmc.CTMC, points [][]float64, width int, opts ctmc.SolveOptions) [][]float64 {
	t.Helper()
	out := make([][]float64, 0, len(points))
	for off := 0; off < len(points); off += width {
		hi := off + width
		if hi > len(points) {
			hi = len(points)
		}
		pis, err := c.SolveBatch(points[off:hi], opts)
		if err != nil {
			t.Fatalf("solve batch width %d offset %d: %v", width, off, err)
		}
		out = append(out, pis...)
	}
	return out
}

func requireBitIdentical(t *testing.T, name string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points vs %d", name, len(want), len(got))
	}
	for i := range want {
		for s := range want[i] {
			if want[i][s] != got[i][s] {
				t.Fatalf("%s: point %d state %d: %v != %v (must be bit-identical)",
					name, i, s, got[i][s], want[i][s])
			}
		}
	}
}

// rateGrid turns a grid of times (a timeout or a period) into one-slot
// points at slot value 1/time.
func rateGrid(times ...float64) [][]float64 {
	out := make([][]float64, len(times))
	for i, T := range times {
		out[i] = []float64{1 / T}
	}
	return out
}

// avxModes lists the sweep-kernel settings the machine can run: the
// scalar kernel always, the vectorized one where it is available.
func avxModes() []bool {
	if ctmc.HaveAVXForTest() {
		return []bool{false, true}
	}
	return []bool{false}
}

// batchWidths covers every group shape of the four-lane batch: one to
// three live lanes padded to four, a full group, and five to nine and
// seventeen lanes split into several groups (the last one padded unless
// it is full).
var batchWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17}

// TestSolveBatchBitIdentity pins the tentpole contract on both paper
// chains: the batched solve equals SteadyStateTraced on the chain with
// the slots bound to each point, bit for bit, at every lane width from 1
// to 9 and at 17, in the scalar and the vectorized kernel.
func TestSolveBatchBitIdentity(t *testing.T) {
	chains := map[string]struct {
		c      *ctmc.CTMC
		points [][]float64
	}{
		"rpc": {rpcParamChain(t), rateGrid(0.5, 0.75, 1, 1.5, 2, 3, 5, 7.5, 10,
			12.5, 15, 20, 25, 30, 40, 50, 60)},
		"streaming": {streamingParamChain(t), rateGrid(5, 10, 25, 50, 75, 100, 150, 200, 300,
			400, 500, 600, 700, 800, 900, 1000, 1200)},
	}
	for name, tc := range chains {
		want := solveSequential(t, tc.c, tc.points, ctmc.SolveOptions{})
		for _, avx := range avxModes() {
			prev := ctmc.SetAVXForTest(avx)
			for _, width := range batchWidths {
				tag := fmt.Sprintf("%s/avx=%v/width=%d", name, avx, width)
				got := batchInWidths(t, tc.c, tc.points, width, ctmc.SolveOptions{})
				requireBitIdentical(t, tag, want, got)
			}
			ctmc.SetAVXForTest(prev)
		}
	}
}

// TestSolveBatchPadLanesNeverSurface pins that the pad lanes filling a
// short group to four stay internal: SolveBatchLanes reports exactly one
// result and one error slot per point, and a lane that exhausts its
// budget is attributed to its own index (never to a pad lane).
func TestSolveBatchPadLanesNeverSurface(t *testing.T) {
	c := rpcParamChain(t)
	points := rateGrid(0.5, 0.75, 1, 1.5, 2, 3, 5, 7.5, 10, 12.5, 15, 20, 25, 30, 40, 50, 60)
	for _, K := range batchWidths {
		out, laneErrs, err := c.SolveBatchLanes(points[:K], ctmc.SolveOptions{})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		if len(out) != K || len(laneErrs) != K {
			t.Fatalf("K=%d: %d results and %d lane errors, want %d each", K, len(out), len(laneErrs), K)
		}
		for k := range out {
			if out[k] == nil || laneErrs[k] != nil {
				t.Fatalf("K=%d lane %d: result %v, error %v", K, k, out[k] != nil, laneErrs[k])
			}
		}
	}
	// Only the last lane exhausts the budget; the others converge. On the
	// 12×12 chain the ten leading points need at most 291 sweeps (5.2 ms)
	// and the last one (800 ms) 305. Each K first proves, by a solo
	// solve, that its last point cannot converge within the budget.
	c = staggeredChain(t)
	converging := rateGrid(605.5, 25, 400, 100, 200, 56.5, 5.2, 50, 150, 300)
	opts := ctmc.SolveOptions{MaxIterations: 300}
	for _, K := range []int{3, 11} {
		points = append(slices.Clone(converging[:K-1]), []float64{1 / 800.0})
		if _, _, err := boundChain(t, c, points[K-1]).SteadyStateTraced(opts); !errors.Is(err, ctmc.ErrNoConvergence) {
			t.Fatalf("K=%d: premise broken: solo solve of the last point returned %v, want ErrNoConvergence", K, err)
		}
		out, laneErrs, err := c.SolveBatchLanes(points, opts)
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		if len(out) != K || len(laneErrs) != K {
			t.Fatalf("K=%d: %d results and %d lane errors, want %d each", K, len(out), len(laneErrs), K)
		}
		for k := 0; k < K-1; k++ {
			if laneErrs[k] != nil {
				t.Fatalf("K=%d lane %d: %v", K, k, laneErrs[k])
			}
			want := solveSequential(t, c, points[k:k+1], opts)
			requireBitIdentical(t, fmt.Sprintf("K=%d", K), want, out[k:k+1])
		}
		var ce *ctmc.ConvergenceError
		if !errors.As(laneErrs[K-1], &ce) || ce.Point != K-1 || ce.Params[0] != points[K-1][0] {
			t.Fatalf("K=%d: last lane error %v, want ConvergenceError{Point: %d}", K, laneErrs[K-1], K-1)
		}
		_, err = c.SolveBatch(points, opts)
		var bpe *ctmc.BatchPointError
		if !errors.As(err, &bpe) || bpe.Point != K-1 || !errors.As(err, &ce) || ce.Point != K-1 {
			t.Fatalf("K=%d: want BatchPointError{Point: %d} wrapping its ConvergenceError, got %v", K, K-1, err)
		}
	}
}

// TestSolveBatchMatchesSoloOutcome pins the solo parity including
// budget-exhausted lanes: whatever a solo solve produces at a given
// iteration bound — a converged vector or a typed failure — the batch
// must reproduce, lane for lane.
func TestSolveBatchMatchesSoloOutcome(t *testing.T) {
	chains := map[string]struct {
		c      *ctmc.CTMC
		points [][]float64
	}{
		"rpc":       {rpcParamChain(t), rpcPoints()},
		"streaming": {streamingParamChain(t), streamingPoints()},
	}
	for name, tc := range chains {
		c, points := tc.c, tc.points
		for _, maxIter := range []int{3, 40, 400, 0} {
			// Small bounds force failures on some or all lanes.
			opts := ctmc.SolveOptions{MaxIterations: maxIter}
			want := make([][]float64, len(points))
			wantErr := make([]error, len(points))
			for i, pt := range points {
				want[i], _, wantErr[i] = boundChain(t, c, pt).SteadyStateTraced(opts)
			}
			got, err := c.SolveBatch(points, opts)
			firstFail := -1
			for i, e := range wantErr {
				if e != nil {
					firstFail = i
					break
				}
			}
			if firstFail < 0 {
				if err != nil {
					t.Fatalf("%s maxIter=%d: batch failed where solo succeeded: %v", name, maxIter, err)
				}
				requireBitIdentical(t, name, want, got)
				continue
			}
			var bpe *ctmc.BatchPointError
			if !errors.As(err, &bpe) {
				t.Fatalf("%s maxIter=%d: want *BatchPointError, got %v", name, maxIter, err)
			}
			if bpe.Point != firstFail {
				t.Fatalf("%s maxIter=%d: failed lane %d, want %d", name, maxIter, bpe.Point, firstFail)
			}
			var ce, soloCE *ctmc.ConvergenceError
			if !errors.As(err, &ce) || !errors.As(wantErr[firstFail], &soloCE) {
				t.Fatalf("%s maxIter=%d: want ConvergenceError on both sides (%v vs %v)", name, maxIter, err, wantErr[firstFail])
			}
			if ce.Iterations != soloCE.Iterations || ce.Residual != soloCE.Residual {
				t.Fatalf("%s maxIter=%d: batch failure %+v differs from solo %+v", name, maxIter, ce, soloCE)
			}
		}
	}
}

// TestSolveBatchMixedConvergence pins mixed-convergence batches: the
// points of one batch need from about 140 to about 500 sweeps, so its
// lanes deactivate at different sweeps, and each lane still equals a solo
// solve at its point bit for bit.
func TestSolveBatchMixedConvergence(t *testing.T) {
	c, points := staggeredChain(t), staggeredPoints()
	requireDistinctSweeps(t, c, points)
	got, err := c.SolveBatch(points, ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "mixed", solveSequential(t, c, points, ctmc.SolveOptions{}), got)
}

// TestSolveBatchDeactivationDeterminism pins that lane deactivation is a
// pure function of each lane's own data: repeated batches are identical,
// and permuting which points share a batch — so that each lane
// deactivates beside different neighbours — permutes the results without
// changing a single bit.
func TestSolveBatchDeactivationDeterminism(t *testing.T) {
	c, points := staggeredChain(t), staggeredPoints()
	requireDistinctSweeps(t, c, points)
	first, err := c.SolveBatch(points, ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.SolveBatch(points, ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "repeat", first, again)

	perm := []int{5, 2, 7, 0, 3, 6, 1, 4}
	permPoints := make([][]float64, len(perm))
	for i, p := range perm {
		permPoints[i] = points[p]
	}
	permuted, err := c.SolveBatch(permPoints, ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		requireBitIdentical(t, "permuted", first[p:p+1], permuted[i:i+1])
	}
}

// TestSolveBatchValidation pins the input contract: per-point arity and
// positivity failures are typed RebindErrors attributed to their lane, a
// slot-free chain is refused, and an empty batch is no work.
func TestSolveBatchValidation(t *testing.T) {
	c := rpcParamChain(t)
	var bpe *ctmc.BatchPointError
	var re *ctmc.RebindError

	_, err := c.SolveBatch([][]float64{{1}, {1, 2}}, ctmc.SolveOptions{})
	if !errors.As(err, &bpe) || bpe.Point != 1 || !errors.As(err, &re) {
		t.Fatalf("arity: want BatchPointError{Point: 1} wrapping RebindError, got %v", err)
	}
	_, err = c.SolveBatch([][]float64{{1}, {-2}}, ctmc.SolveOptions{})
	if !errors.As(err, &bpe) || bpe.Point != 1 || !errors.Is(err, ctmc.ErrStructuralRebind) {
		t.Fatalf("positivity: want BatchPointError{Point: 1} wrapping ErrStructuralRebind, got %v", err)
	}
	plain := rpcChain(t) // no rate slots
	if _, err := plain.SolveBatch([][]float64{{1}}, ctmc.SolveOptions{}); err == nil {
		t.Fatal("slot-free chain: want error")
	}
	if pis, err := c.SolveBatch(nil, ctmc.SolveOptions{}); err != nil || pis != nil {
		t.Fatalf("empty batch: want (nil, nil), got (%v, %v)", pis, err)
	}
}

// TestSolveBatchConvergenceErrorPoint pins the failure attribution: the
// lowest failed lane wins, and the unwrapped ConvergenceError carries the
// lane index and its rate vector.
func TestSolveBatchConvergenceErrorPoint(t *testing.T) {
	c := rpcParamChain(t)
	points := rpcPoints()[:3]
	_, err := c.SolveBatch(points, ctmc.SolveOptions{MaxIterations: 2})
	if !errors.Is(err, ctmc.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	var bpe *ctmc.BatchPointError
	if !errors.As(err, &bpe) || bpe.Point != 0 {
		t.Fatalf("want BatchPointError{Point: 0}, got %v", err)
	}
	var ce *ctmc.ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConvergenceError, got %v", err)
	}
	if ce.Point != 0 {
		t.Fatalf("Point = %d, want 0", ce.Point)
	}
	if len(ce.Params) != 1 || ce.Params[0] != points[0][0] {
		t.Fatalf("Params = %v, want %v", ce.Params, points[0])
	}
}
