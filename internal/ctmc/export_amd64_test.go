//go:build amd64

package ctmc

import "errors"

// SetAVXForTest toggles the vectorized sweep kernel and returns the
// previous setting, so the external tests can run the asm and scalar
// kernels against each other on the same machine.
func SetAVXForTest(on bool) bool {
	prev := haveAVX
	haveAVX = on
	return prev
}

// HaveAVXForTest reports whether the vectorized kernel is usable here.
func HaveAVXForTest() bool { return haveAVX }

// FusedSumsForTest batches points on c in four-lane groups, runs warm
// iterations of each group from the uniform start, then one more sweep
// in the vectorized kernel, and returns the per-lane sums the kernel
// fused into that sweep alongside laneSums over the slab it left, four
// entries per group. Frozen lanes are summed too, so every entry
// compares.
func FusedSumsForTest(c *CTMC, points [][]float64, warm int) (fused, ref []float64, err error) {
	plan, err := c.ensurePlan()
	if err != nil {
		return nil, nil, err
	}
	for off := 0; off < len(points); off += BatchLanes {
		bc := c.fillBatch(plan, points[off:min(off+BatchLanes, len(points))])
		x := bc.spread()
		done := bc.padDone()
		delta := make([]float64, BatchLanes)
		sums := make([]float64, BatchLanes)
		for i := 0; i < warm; i++ {
			bc.step(x, delta, sums, done)
		}
		clear(delta)
		if !bc.sweepGS4Fast(x, delta, sums, done) {
			return nil, nil, errors.New("ctmc: vectorized kernel declined the batch")
		}
		fused = append(fused, sums...)
		bc.laneSums(x, sums)
		ref = append(ref, sums...)
	}
	return fused, ref, nil
}
