//go:build amd64

package ctmc_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ctmc"
)

// TestSweepGS8AVXMatchesScalar pins the vectorized Gauss-Seidel kernel to
// the scalar one bit for bit, on both paper chains, in every shape the
// half dispatch takes: one point (the low half alone, as a SteadyState
// solve runs), three points (five pad lanes frozen from the start, the
// high half never swept), five points (both halves, pads in the high
// half), and eight points with mixed per-lane tolerances so lanes
// deactivate at different sweeps and the frozen-lane blend path is
// exercised. The low-half-loose case gives lanes 0–3 loose tolerances,
// so late in the solve only the high half is still swept. The
// solver-level property tests already compare the batch against solo
// solves; this one isolates the asm/scalar seam so a kernel regression
// is attributed directly.
func TestSweepGS8AVXMatchesScalar(t *testing.T) {
	if !ctmc.HaveAVXForTest() {
		t.Skip("no AVX support on this machine")
	}
	mixed := []float64{1e-12, 1e-6, 1e-12, 1e-9, 1e-12, 1e-4, 1e-12, 1e-10}
	lowLoose := []float64{1e-3, 1e-4, 1e-5, 1e-4, 1e-12, 1e-11, 1e-12, 1e-10}
	cases := []struct {
		name string
		tols []float64
	}{
		{"8-points", mixed},
		{"3-points", mixed[:3]},
		{"1-points", mixed[:1]},
		{"5-points", mixed[:5]},
		{"8-points-low-half-loose", lowLoose},
	}
	for _, tc := range []struct {
		name   string
		chain  func(t *testing.T) *ctmc.CTMC
		points func() [][]float64
	}{
		{"rpc", rpcParamChain, rpcPoints},
		{"streaming", streamingParamChain, streamingPoints},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sc := range cases {
				t.Run(sc.name, func(t *testing.T) {
					c := tc.chain(t)
					points := tc.points()[:len(sc.tols)]
					opts := ctmc.BatchOptions{
						LaneTolerances: sc.tols,
					}
					vec, err := c.SolveBatch(points, opts)
					if err != nil {
						t.Fatalf("vectorized SolveBatch: %v", err)
					}
					prev := ctmc.SetAVXForTest(false)
					defer ctmc.SetAVXForTest(prev)
					scalar, err := c.SolveBatch(points, opts)
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
// slab, bit for bit, for every lane of each half the kernel sweeps.
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
		for _, K := range []int{1, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/%d-points", tc.name, K), func(t *testing.T) {
				fused, ref, err := ctmc.FusedSumsForTest(tc.chain(t), tc.points()[:K], 3)
				if err != nil {
					t.Fatal(err)
				}
				swept := 4
				if K > 4 {
					swept = 8
				}
				for k := 0; k < swept; k++ {
					if math.Float64bits(fused[k]) != math.Float64bits(ref[k]) {
						t.Errorf("lane %d: fused sum %v != laneSums %v (must be bit-identical)", k, fused[k], ref[k])
					}
				}
			})
		}
	}
}
