//go:build amd64

package ctmc_test

import (
	"fmt"
	"testing"

	"repro/internal/ctmc"
)

// TestSweepGS8AVXMatchesScalar pins the vectorized eight-lane
// Gauss-Seidel kernel to the scalar one bit for bit, on both paper
// chains, including mixed per-lane tolerances so lanes deactivate at
// different sweeps and the frozen-lane blend path is exercised, and a
// three-point batch whose five pad lanes are frozen from the start. The
// solver-level property tests already compare the batch against solo
// solves; this one isolates the asm/scalar seam so a kernel regression
// is attributed directly.
func TestSweepGS8AVXMatchesScalar(t *testing.T) {
	if !ctmc.HaveAVXForTest() {
		t.Skip("no AVX support on this machine")
	}
	tols := []float64{1e-12, 1e-6, 1e-12, 1e-9, 1e-12, 1e-4, 1e-12, 1e-10}
	for _, tc := range []struct {
		name   string
		chain  func(t *testing.T) *ctmc.CTMC
		points func() [][]float64
	}{
		{"rpc", rpcParamChain, rpcPoints},
		{"streaming", streamingParamChain, streamingPoints},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, K := range []int{8, 3} {
				t.Run(fmt.Sprintf("%d-points", K), func(t *testing.T) {
					c := tc.chain(t)
					points := tc.points()[:K]
					opts := ctmc.BatchOptions{
						Solve:          ctmc.SolveOptions{Sweep: ctmc.SweepGaussSeidel},
						LaneTolerances: tols[:K],
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
