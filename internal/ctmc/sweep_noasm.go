//go:build !amd64

package ctmc

// sweepGS4Fast has no vectorized kernel on this architecture; the caller
// falls back to the scalar sweepGS4 and laneSums, which compute the
// identical bits.
func (bc *batchComponent) sweepGS4Fast(x, delta, sums []float64, done []bool) bool {
	return false
}

// scaleGS4Fast has no vectorized kernel on this architecture; the caller
// falls back to the scalar scaleLanes, which computes the identical bits.
func (bc *batchComponent) scaleGS4Fast(x []float64, scale *[BatchLanes]float64) bool {
	return false
}
