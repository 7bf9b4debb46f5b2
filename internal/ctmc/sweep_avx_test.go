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
// eight (two four-lane groups). Within one group: one point (three pad
// lanes frozen from the start, as a SteadyState solve runs), three points
// with mixed tolerances (lane 1 freezes early between two live lanes,
// beside a pad lane), four points (a full register), and four points with
// staggered per-lane tolerances, so lanes deactivate at different sweeps
// and frozen lanes sit next to live ones in the one register the kernel
// blends. Across groups: five points (the second group padded), eight
// points with mixed tolerances, and eight points whose low half — the
// first group — converges early. The solver-level property tests already compare the
// batch against solo solves; this one isolates the asm/scalar seam so a
// kernel regression is attributed directly.
func TestSweepGS8AVXMatchesScalar(t *testing.T) {
	if !ctmc.HaveAVXForTest() {
		t.Skip("no AVX support on this machine")
	}
	mixed := []float64{1e-12, 1e-6, 1e-12, 1e-9, 1e-12, 1e-4, 1e-12, 1e-10}
	lowLoose := []float64{1e-3, 1e-4, 1e-5, 1e-4, 1e-12, 1e-11, 1e-12, 1e-10}
	cases := []struct {
		name string
		k    int
		tols []float64
	}{
		{"1-points", 1, mixed[:1]},
		{"3-points", 3, mixed[:3]},
		{"4-points", 4, nil},
		{"4-points-staggered", 4, []float64{1e-4, 1e-12, 1e-6, 1e-10}},
		{"5-points", 5, mixed[:5]},
		{"8-points", 8, mixed},
		{"8-points-low-half-loose", 8, lowLoose},
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
					points := tc.points()[:sc.k]
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
