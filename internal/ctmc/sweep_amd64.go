//go:build amd64

package ctmc

import "unsafe"

// sweepGS4Args marshals one four-lane Gauss-Seidel sweep for the
// vectorized kernel. Every field is one 8-byte word; the assembly loads
// them at fixed offsets (0, 8, 16, ... in declaration order), so the field
// order here and in sweep_amd64.s must stay in sync — TestSweepGS4ArgsLayout
// checks every load against unsafe.Offsetof.
type sweepGS4Args struct {
	n       int64          // rows in the component
	inStart unsafe.Pointer // *int32, n+1 CSR row boundaries
	inOff   unsafe.Pointer // *int32, in-edge source slab offsets (row*4)
	rate    unsafe.Pointer // *float64, lane-interleaved in-edge rates
	invExit unsafe.Pointer // *float64, lane-interleaved 1/exit
	x       unsafe.Pointer // *float64, lane-interleaved iterate slab
	delta   unsafe.Pointer // *float64, 4 per-lane residual maxima (out)
	sums    unsafe.Pointer // *float64, 4 per-lane column sums (out)
	dead    unsafe.Pointer // *uint64, 4 blend masks: sign bit set = lane frozen
}

// sweepGS4AVX runs one full Gauss-Seidel sweep of the four lanes of every
// 32-byte row with AVX: one 4-double accumulator per row, VMULPD/VADDPD
// for the inflow terms (the in-degree mod 4 edges first, then four
// independent products per iteration, added in edge order), VMULPD by the
// inverse exit rate, and the residual guard as a vector compare whose
// rare hits fall back to scalar divides. Every operation is the same
// IEEE-754 double multiply/add/subtract the scalar kernel performs, per
// lane in the same order (no FMA contraction, no reassociation), so the
// updated slab and its residual maxima are bit-identical to sweepGS4.
// Frozen lanes are excluded by blending their old column values back on
// store and masking them out of the residual compare. Each stored row is
// also added into a per-lane sum, rows in order from +0, so the four
// column sums written to a.sums are bit-identical to laneSums over the
// swept slab. Implemented in sweep_amd64.s.
//
//go:noescape
func sweepGS4AVX(a *sweepGS4Args)

// scaleGS4AVX multiplies the four lanes of n ≥ 1 32-byte rows starting at
// x by scale[0:4], in place — scaleLanes' multiply, one VMULPD per row.
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

// sweepGS4Fast runs the sweep in the vectorized kernel when the machine
// supports it, reporting whether it did. The kernel fuses the
// normalization sums, so on success sums holds the column sum of every
// lane. Rows with zero exit rate never occur in a multi-state bottom
// component, but the scalar kernels guard against them per row; the
// vector kernel instead declines such batches up front (allPos), keeping
// the guarded behaviour on one path.
func (bc *batchComponent) sweepGS4Fast(x, delta, sums []float64, done []bool) bool {
	if !haveAVX || !bc.allPos || bc.n == 0 || len(bc.inOff) == 0 {
		return false
	}
	var dead [BatchLanes]uint64
	for k, d := range done[:BatchLanes] {
		if d {
			dead[k] = 1 << 63
		}
	}
	sweepGS4AVX(&sweepGS4Args{
		n:       int64(bc.n),
		inStart: unsafe.Pointer(&bc.inStart[0]),
		inOff:   unsafe.Pointer(&bc.inOff[0]),
		rate:    unsafe.Pointer(&bc.rate[0]),
		invExit: unsafe.Pointer(&bc.invExit[0]),
		x:       unsafe.Pointer(&x[0]),
		delta:   unsafe.Pointer(&delta[0]),
		sums:    unsafe.Pointer(&sums[0]),
		dead:    unsafe.Pointer(&dead[0]),
	})
	return true
}

// scaleGS4Fast multiplies every lane by its scale in the vectorized
// kernel, reporting whether it did.
func (bc *batchComponent) scaleGS4Fast(x []float64, scale *[BatchLanes]float64) bool {
	if !haveAVX || bc.n == 0 {
		return false
	}
	scaleGS4AVX(&x[0], &scale[0], int64(bc.n))
	return true
}
