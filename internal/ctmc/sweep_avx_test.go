//go:build amd64

package ctmc_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ctmc"
)

// TestSweepGS8AVXMatchesScalar pins the vectorized Gauss-Seidel kernel to
// the scalar one bit for bit, on both paper chains, from one point to
// eight (two four-lane groups). The points come from grids whose solo
// solves all take different sweep counts (the rpc timeouts from 20 to 36
// sweeps, the 12×12 streaming periods from about 140 to about 500), so
// lanes deactivate at different sweeps and frozen lanes sit next to live
// ones in the one register the kernel blends. Within one group: one point
// (three pad lanes frozen from the start, as a solo solve runs), three
// points (the fast lane 1 freezes early between two live lanes, beside a
// pad lane), four points (a full register), and four points with
// staggered sweep counts. Across groups: five points (the second group
// padded), eight points, and eight points whose low half — the first
// group — converges early. The solver-level property tests already
// compare the batch against solo solves; this one isolates the
// asm/scalar seam so a kernel regression is attributed directly.
func TestSweepGS8AVXMatchesScalar(t *testing.T) {
	if !ctmc.HaveAVXForTest() {
		t.Skip("no AVX support on this machine")
	}
	// Indexes into a chain's grid, whose point 0 is slow, point 1 fast,
	// and whose points 1, 3, 5 and 7 are its four fastest.
	cases := []struct {
		name string
		idx  []int
	}{
		{"1-points", []int{0}},
		{"3-points", []int{0, 1, 2}},
		{"4-points", []int{0, 1, 2, 3}},
		{"4-points-staggered", []int{1, 0, 3, 2}},
		{"5-points", []int{0, 1, 2, 3, 4}},
		{"8-points", []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"8-points-low-half-loose", []int{1, 5, 7, 3, 0, 2, 6, 4}},
	}
	for _, tc := range []struct {
		name   string
		chain  func(t *testing.T) *ctmc.CTMC
		points [][]float64
	}{
		{"rpc", rpcParamChain, rateGrid(0.5, 20, 1, 10, 5, 15, 2, 12.5)},
		{"streaming", staggeredChain, staggeredPoints()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.chain(t)
			requireDistinctSweeps(t, c, tc.points)
			for _, sc := range cases {
				t.Run(sc.name, func(t *testing.T) {
					points := make([][]float64, len(sc.idx))
					for i, j := range sc.idx {
						points[i] = tc.points[j]
					}
					vec, err := c.SolveBatch(points, ctmc.SolveOptions{})
					if err != nil {
						t.Fatalf("vectorized SolveBatch: %v", err)
					}
					prev := ctmc.SetAVXForTest(false)
					defer ctmc.SetAVXForTest(prev)
					scalar, err := c.SolveBatch(points, ctmc.SolveOptions{})
					if err != nil {
						t.Fatalf("scalar SolveBatch: %v", err)
					}
					requireBitIdentical(t, tc.name, scalar, vec)
				})
			}
		})
	}
}

// TestSweepGS8AVXFusedSums pins the normalization sums the vectorized
// kernel accumulates during its sweep to laneSums over the same swept
// slab, bit for bit, for every lane of every four-lane group of batches
// of one to eight points.
func TestSweepGS8AVXFusedSums(t *testing.T) {
	if !ctmc.HaveAVXForTest() {
		t.Skip("no AVX support on this machine")
	}
	for _, tc := range []struct {
		name   string
		chain  func(t *testing.T) *ctmc.CTMC
		points func() [][]float64
	}{
		{"rpc", rpcParamChain, rpcPoints},
		{"streaming", streamingParamChain, streamingPoints},
	} {
		for _, K := range []int{1, 3, 4, 5, 8} {
			t.Run(fmt.Sprintf("%s/%d-points", tc.name, K), func(t *testing.T) {
				fused, ref, err := ctmc.FusedSumsForTest(tc.chain(t), tc.points()[:K], 3)
				if err != nil {
					t.Fatal(err)
				}
				for k := range fused {
					if math.Float64bits(fused[k]) != math.Float64bits(ref[k]) {
						t.Errorf("lane %d: fused sum %v != laneSums %v (must be bit-identical)", k, fused[k], ref[k])
					}
				}
			})
		}
	}
}
