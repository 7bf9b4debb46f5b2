//go:build amd64

package ctmc

import "unsafe"

// sweepGS4Args marshals one four-lane Gauss-Seidel sweep over one half
// of the eight-lane slab for the vectorized kernel. Every field is one
// 8-byte word; the assembly loads them at fixed offsets (0, 8, 16, ... in
// declaration order), so the field order here and in sweep_amd64.s must
// stay in sync — TestSweepGS4ArgsLayout checks every load against
// unsafe.Offsetof. The pointers address lane 0 of the full slabs; the
// kernel adds half to each, so one args block serves both halves.
type sweepGS4Args struct {
	n       int64          // rows in the component
	inStart unsafe.Pointer // *int32, n+1 CSR row boundaries
	inFrom  unsafe.Pointer // *int32, in-edge source rows
	rate    unsafe.Pointer // *float64, lane-interleaved in-edge rates
	invExit unsafe.Pointer // *float64, lane-interleaved 1/exit
	x       unsafe.Pointer // *float64, lane-interleaved iterate slab
	delta   unsafe.Pointer // *float64, 8 per-lane residual maxima (out)
	sums    unsafe.Pointer // *float64, 8 per-lane column sums (out)
	dead    unsafe.Pointer // *uint64, 8 blend masks: sign bit set = lane frozen
	half    int64          // byte offset of the swept half in a row: 0 or 32
}

// sweepGS4AVX runs one full Gauss-Seidel sweep of the four lanes at byte
// offset a.half of every 64-byte row with AVX: one 4-double accumulator
// per row, VMULPD/VADDPD for the inflow terms, VMULPD by the inverse exit
// rate, and the residual guard as a vector compare whose rare hits fall
// back to scalar divides. Every operation is the same IEEE-754 double
// multiply/add/subtract the scalar kernel performs, per lane in the same
// order (no FMA contraction, no reassociation), so the updated half of
// the slab and its residual maxima are bit-identical to sweepGS8. Frozen
// lanes are excluded by blending their old column values back on store
// and masking them out of the residual compare. Each stored row is also
// added into a per-lane sum, rows in order from +0, so the four column
// sums written to a.sums are bit-identical to laneSums over the swept
// slab. Lanes never mix, so the two halves sweep independently.
// Implemented in sweep_amd64.s.
//
//go:noescape
func sweepGS4AVX(a *sweepGS4Args)

// scaleGS4AVX multiplies four lanes of n ≥ 1 64-byte rows starting at x
// by scale[0:4], in place — scaleLanes' multiply, one VMULPD per row.
//
//go:noescape
func scaleGS4AVX(x, scale *float64, n int64)

// cpuidLeaf and xgetbv0 are the tiny assembly probes behind detectAVX.
//
//go:noescape
func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// haveAVX reports whether the CPU and the OS both support 256-bit AVX
// state, the only ISA extension sweepGS4AVX and scaleGS4AVX need.
var haveAVX = detectAVX()

func detectAVX() bool {
	maxLeaf, _, _, _ := cpuidLeaf(0, 0)
	if maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuidLeaf(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&6 == 6 // XMM and YMM state enabled by the OS
}

// sweepGS8Fast runs the sweep in the vectorized kernel when the machine
// supports it, reporting whether it did: one sweepGS4AVX call for each
// half of the slab that holds a live lane, so a one-lane SteadyState
// sweeps lanes 0–3 only and a batch whose lanes 0–3 (or 4–7) have all
// frozen sweeps the other half alone. The kernel fuses the normalization
// sums, so on success sums holds the column sum of every lane of a swept
// half; a skipped half's delta and sums are left untouched. Rows with
// zero exit rate never occur in a multi-state bottom component, but the
// scalar kernels guard against them per row; the vector kernel instead
// declines such batches up front (allPos), keeping the guarded behaviour
// on one path.
func (bc *batchComponent) sweepGS8Fast(x, delta, sums []float64, done []bool) bool {
	if !haveAVX || !bc.allPos || bc.n == 0 || len(bc.inFrom) == 0 {
		return false
	}
	var dead [batchLanes]uint64
	for k, d := range done[:batchLanes] {
		if d {
			dead[k] = 1 << 63
		}
	}
	a := sweepGS4Args{
		n:       int64(bc.n),
		inStart: unsafe.Pointer(&bc.inStart[0]),
		inFrom:  unsafe.Pointer(&bc.inFrom[0]),
		rate:    unsafe.Pointer(&bc.rate[0]),
		invExit: unsafe.Pointer(&bc.invExit[0]),
		x:       unsafe.Pointer(&x[0]),
		delta:   unsafe.Pointer(&delta[0]),
		sums:    unsafe.Pointer(&sums[0]),
		dead:    unsafe.Pointer(&dead[0]),
	}
	for h := 0; h < 2; h++ {
		if halfLive(done, h) {
			a.half = int64(h * 32)
			sweepGS4AVX(&a)
		}
	}
	return true
}

// scaleGS8Fast multiplies every lane of each half that holds a live lane
// by its scale in the vectorized kernel, one scaleGS4AVX pass per half,
// reporting whether it did. A half whose lanes have all frozen is
// skipped: scaleLanes would multiply it by exactly 1.
func (bc *batchComponent) scaleGS8Fast(x []float64, scale *[batchLanes]float64, done []bool) bool {
	if !haveAVX || bc.n == 0 {
		return false
	}
	for h := 0; h < 2; h++ {
		if halfLive(done, h) {
			scaleGS4AVX(&x[h*4], &scale[h*4], int64(bc.n))
		}
	}
	return true
}

// halfLive reports whether half h of the slab, lanes 4h to 4h+3, still
// holds a live lane.
func halfLive(done []bool, h int) bool {
	d := done[4*h : 4*h+4]
	return !(d[0] && d[1] && d[2] && d[3])
}
