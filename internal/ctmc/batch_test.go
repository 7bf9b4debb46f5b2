// Batched-solver property tests live in the external test package with
// the other paper-chain tests: they build the paper's rate-parametric chains
// through internal/models.
package ctmc_test

import (
	"errors"
	"fmt"
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
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = 3, 3
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

// solveSequential runs the reference chain per point: Rebind + SteadyState
// on a private clone, the exact path SolveBatch must reproduce bit for
// bit. Debug checks are enabled so every rebind also asserts the cached
// structural plan against a from-scratch analysis.
func solveSequential(t *testing.T, c *ctmc.CTMC, points [][]float64, opts ctmc.SolveOptions) [][]float64 {
	t.Helper()
	old := ctmc.EnableDebugChecks
	ctmc.EnableDebugChecks = true
	defer func() { ctmc.EnableDebugChecks = old }()
	chain := c.Clone()
	out := make([][]float64, len(points))
	for i, pt := range points {
		if err := chain.Rebind(pt); err != nil {
			t.Fatalf("rebind point %d: %v", i, err)
		}
		pi, err := chain.SteadyState(opts)
		if err != nil {
			t.Fatalf("steady state point %d: %v", i, err)
		}
		out[i] = pi
	}
	return out
}

// batchInWidths solves the points through SolveBatch in chunks of the
// given lane width, reusing the per-chunk options.
func batchInWidths(t *testing.T, c *ctmc.CTMC, points [][]float64, width int, opts ctmc.BatchOptions) [][]float64 {
	t.Helper()
	out := make([][]float64, 0, len(points))
	for off := 0; off < len(points); off += width {
		hi := off + width
		if hi > len(points) {
			hi = len(points)
		}
		chunk := opts
		if opts.LaneTolerances != nil {
			chunk.LaneTolerances = opts.LaneTolerances[off:hi]
		}
		pis, err := c.SolveBatch(points[off:hi], chunk)
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

// batchWidths covers every group shape of the eight-lane batch: one to
// seven live lanes padded to eight, a full group, and nine and seventeen
// lanes split into several groups (the last one padded).
var batchWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17}

// TestSolveBatchBitIdentity pins the tentpole contract on both paper
// chains: the batched solve equals the sequential Rebind+SteadyState chain
// bit for bit, at every lane width from 1 to 9 and at 17, in the scalar
// and the vectorized kernel.
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
				got := batchInWidths(t, tc.c, tc.points, width, ctmc.BatchOptions{})
				requireBitIdentical(t, tag, want, got)
			}
			ctmc.SetAVXForTest(prev)
		}
	}
}

// TestSolveBatchPadLanesNeverSurface pins that the pad lanes filling a
// short group to eight stay internal: SolveBatchLanes reports exactly one
// result and one error slot per point, a lane that exhausts its budget is
// attributed to its own index (never to a pad lane), and per-lane
// tolerances are taken per point, not per padded lane.
func TestSolveBatchPadLanesNeverSurface(t *testing.T) {
	c := rpcParamChain(t)
	points := rateGrid(0.5, 0.75, 1, 1.5, 2, 3, 5, 7.5, 10, 12.5, 15, 20, 25, 30, 40, 50, 60)
	for _, K := range batchWidths {
		out, laneErrs, err := c.SolveBatchLanes(points[:K], ctmc.BatchOptions{})
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
	for _, K := range []int{3, 11} {
		// Only the last lane is held to an unreachable tolerance, so it
		// alone exhausts the budget; the others converge.
		tols := make([]float64, K)
		for k := range tols {
			tols[k] = 1e-9
		}
		tols[K-1] = 1e-300
		opts := ctmc.BatchOptions{
			Solve:          ctmc.SolveOptions{MaxIterations: 500},
			LaneTolerances: tols,
		}
		out, laneErrs, err := c.SolveBatchLanes(points[:K], opts)
		if err != nil {
			t.Fatalf("K=%d: %d lane tolerances rejected: %v", K, K, err)
		}
		if len(out) != K || len(laneErrs) != K {
			t.Fatalf("K=%d: %d results and %d lane errors, want %d each", K, len(out), len(laneErrs), K)
		}
		for k := 0; k < K-1; k++ {
			if laneErrs[k] != nil {
				t.Fatalf("K=%d lane %d: %v", K, k, laneErrs[k])
			}
			want := solveSequential(t, c, points[k:k+1],
				ctmc.SolveOptions{MaxIterations: 500, Tolerance: tols[k]})
			requireBitIdentical(t, fmt.Sprintf("K=%d", K), want, out[k:k+1])
		}
		var ce *ctmc.ConvergenceError
		if !errors.As(laneErrs[K-1], &ce) || ce.Point != K-1 || ce.Params[0] != points[K-1][0] {
			t.Fatalf("K=%d: last lane error %v, want ConvergenceError{Point: %d}", K, laneErrs[K-1], K-1)
		}
		_, err = c.SolveBatch(points[:K], opts)
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
			chain := c.Clone()
			want := make([][]float64, len(points))
			wantErr := make([]error, len(points))
			for i, pt := range points {
				if err := chain.Rebind(pt); err != nil {
					t.Fatal(err)
				}
				want[i], wantErr[i] = chain.SteadyState(opts)
			}
			got, err := c.SolveBatch(points, ctmc.BatchOptions{Solve: opts})
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

// TestSolveBatchLaneTolerances pins mixed-convergence batches: lanes with
// different tolerances deactivate at different sweeps, and each lane still
// equals a solo solve at exactly its own tolerance.
func TestSolveBatchLaneTolerances(t *testing.T) {
	c := streamingParamChain(t)
	points := streamingPoints()
	tols := []float64{1e-6, 1e-13, 1e-8, 1e-10, 1e-7, 1e-12, 1e-9, 1e-11}
	got, err := c.SolveBatch(points, ctmc.BatchOptions{LaneTolerances: tols})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		want := solveSequential(t, c, [][]float64{pt}, ctmc.SolveOptions{Tolerance: tols[i]})
		requireBitIdentical(t, fmt.Sprintf("point %d", i), want, got[i:i+1])
	}
}

// TestSolveBatchDeactivationDeterminism pins that lane deactivation is a
// pure function of each lane's own data: repeated batches are identical,
// and permuting which points share a batch permutes the results without
// changing a single bit.
func TestSolveBatchDeactivationDeterminism(t *testing.T) {
	c := rpcParamChain(t)
	points := rpcPoints()
	tols := []float64{1e-6, 1e-12, 1e-9, 1e-13, 1e-7, 1e-11, 1e-8, 1e-10}
	opts := ctmc.BatchOptions{LaneTolerances: tols}
	first, err := c.SolveBatch(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.SolveBatch(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "repeat", first, again)

	perm := []int{5, 2, 7, 0, 3, 6, 1, 4}
	permPoints := make([][]float64, len(perm))
	permTols := make([]float64, len(perm))
	for i, p := range perm {
		permPoints[i] = points[p]
		permTols[i] = tols[p]
	}
	permuted, err := c.SolveBatch(permPoints, ctmc.BatchOptions{Solve: opts.Solve, LaneTolerances: permTols})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		requireBitIdentical(t, "permuted", first[p:p+1], permuted[i:i+1])
	}
}

// TestSolveBatchValidation pins the input contract: per-point arity and
// positivity failures are typed RebindErrors attributed to their lane, and
// malformed lane tolerances are rejected.
func TestSolveBatchValidation(t *testing.T) {
	c := rpcParamChain(t)
	var bpe *ctmc.BatchPointError
	var re *ctmc.RebindError

	_, err := c.SolveBatch([][]float64{{1}, {1, 2}}, ctmc.BatchOptions{})
	if !errors.As(err, &bpe) || bpe.Point != 1 || !errors.As(err, &re) {
		t.Fatalf("arity: want BatchPointError{Point: 1} wrapping RebindError, got %v", err)
	}
	_, err = c.SolveBatch([][]float64{{1}, {-2}}, ctmc.BatchOptions{})
	if !errors.As(err, &bpe) || bpe.Point != 1 || !errors.Is(err, ctmc.ErrStructuralRebind) {
		t.Fatalf("positivity: want BatchPointError{Point: 1} wrapping ErrStructuralRebind, got %v", err)
	}
	_, err = c.SolveBatch([][]float64{{1}, {2}}, ctmc.BatchOptions{LaneTolerances: []float64{1e-9}})
	if err == nil {
		t.Fatal("lane tolerance arity: want error")
	}
	_, err = c.SolveBatch([][]float64{{1}, {2}}, ctmc.BatchOptions{LaneTolerances: []float64{1e-9, -1}})
	if err == nil {
		t.Fatal("lane tolerance sign: want error")
	}
	plain := rpcChain(t) // no rate slots
	if _, err := plain.SolveBatch([][]float64{{1}}, ctmc.BatchOptions{}); err == nil {
		t.Fatal("slot-free chain: want error")
	}
	if pis, err := c.SolveBatch(nil, ctmc.BatchOptions{}); err != nil || pis != nil {
		t.Fatalf("empty batch: want (nil, nil), got (%v, %v)", pis, err)
	}
}

// TestSolveBatchConvergenceErrorPoint pins the failure attribution: the
// lowest failed lane wins, and the unwrapped ConvergenceError carries the
// lane index and its rate vector.
func TestSolveBatchConvergenceErrorPoint(t *testing.T) {
	c := rpcParamChain(t)
	points := rpcPoints()[:3]
	_, err := c.SolveBatch(points, ctmc.BatchOptions{
		Solve: ctmc.SolveOptions{MaxIterations: 2},
	})
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
