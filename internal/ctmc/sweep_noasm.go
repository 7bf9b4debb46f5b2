//go:build !amd64

package ctmc

// sweepGS8Fast has no vectorized kernel on this architecture; the caller
// falls back to the scalar sweepGS8 and laneSums, which compute the
// identical bits.
func (bc *batchComponent) sweepGS8Fast(x, delta, sums []float64, done []bool) bool {
	return false
}

// scaleGS8Fast has no vectorized kernel on this architecture; the caller
// falls back to the scalar scaleLanes, which computes the identical bits.
func (bc *batchComponent) scaleGS8Fast(x []float64, scale *[batchLanes]float64, done []bool) bool {
	return false
}
