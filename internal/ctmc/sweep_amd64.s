// Four-lane Gauss-Seidel sweep, AVX: each 32-byte row of the slab is one
// register. See sweepGS4AVX in sweep_amd64.go for the contract: per-lane
// arithmetic is the scalar kernel's exact IEEE-754 double operations in
// the same order — VMULPD/VADDPD/VSUBPD round identically to their scalar
// counterparts and no FMA contraction or reassociation is performed — so
// the results are bit-identical to sweepGS4, and the fused column sums
// to laneSums.
//
// The inflow loop takes a row's in-degree mod 4 edges first (a pair,
// then a single, as the in-degree's low bits say), then four per
// iteration: the loads and multiplies of a pair or a quad are
// independent, and their VADDPDs go into the one accumulator in edge
// order, so every lane adds the scalar kernel's sequence of products.
//
// Register plan:
//	SI  inStart cursor          R13 rows remaining
//	R8  inOff cursor            R14 live-lane bits
//	R9  rate cursor             R15 row byte offset (j*32)
//	R10 invExit cursor          AX/BX/DX source slab offsets, then scratch
//	R11 x base                  R12 delta out pointer
//	DI  sums out pointer        CX in-degree, quads remaining, scratch
//	Y0  inflow accumulator, then max(next, 1e-300)
//	Y2  edge product, then next iterate
//	Y3  2nd product of a pair or a quad
//	Y4  old iterate             Y10 abs mask
//	Y5  3rd product of a quad   Y11 1e-300 broadcast
//	Y6  |next-old|              Y12 residual guard broadcast
//	Y7  4th product of a quad   Y13 per-lane residual maxima
//	Y8  dead-lane blend mask    Y14 per-lane column sums
//	                            Y15 threshold / compare scratch
//
// The frame is scratch for the rare residual slow path: d at 0(SP),
// m at 32(SP), delta at 64(SP).

#include "textflag.h"

DATA absmask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absmask<>(SB), RODATA, $8

// 1e-300, the solo sweep's residual floor
DATA minpos<>+0(SB)/8, $0x01A56E1FC2F8F359
GLOBL minpos<>(SB), RODATA, $8

// residualGuard = 1 - 1e-13 (see solve.go)
DATA guard<>+0(SB)/8, $0x3FEFFFFFFFFFFC7B
GLOBL guard<>(SB), RODATA, $8

// func sweepGS4AVX(a *sweepGS4Args)
TEXT ·sweepGS4AVX(SB), NOSPLIT, $96-8
	// Each load names its sweepGS4Args field; TestSweepGS4ArgsLayout
	// checks every offset against unsafe.Offsetof.
	MOVQ a+0(FP), DI
	MOVQ 0(DI), R13  // n
	MOVQ 8(DI), SI   // inStart
	MOVQ 16(DI), R8  // inOff
	MOVQ 24(DI), R9  // rate
	MOVQ 32(DI), R10 // invExit
	MOVQ 40(DI), R11 // x
	MOVQ 48(DI), R12 // delta
	MOVQ 64(DI), BX  // dead
	MOVQ 56(DI), DI  // sums
	VMOVUPD (BX), Y8
	VMOVMSKPD Y8, R14
	XORQ $15, R14
	VBROADCASTSD absmask<>(SB), Y10
	VBROADCASTSD minpos<>(SB), Y11
	VBROADCASTSD guard<>(SB), Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	XORQ R15, R15

rowloop:
	// CX = in-degree of row j; the CSR rows are contiguous, so the
	// inOff/rate cursors just keep advancing. The in-degree mod 4 edges
	// come first: a pair if bit 1 is set, then a single if bit 0 is.
	MOVL 4(SI), CX
	SUBL 0(SI), CX
	ADDQ $4, SI
	VXORPD Y0, Y0, Y0
	TESTL $2, CX
	JZ   nopair

	// acc[k] += x[off+k] * rate[e*4+k], all four lanes per edge
	MOVL 0(R8), AX
	MOVL 4(R8), BX
	VMOVUPD (R11)(AX*8), Y2
	VMULPD 0(R9), Y2, Y2
	VMOVUPD (R11)(BX*8), Y3
	VMULPD 32(R9), Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	ADDQ $8, R8
	ADDQ $64, R9

nopair:
	TESTL $1, CX
	JZ   quads
	MOVL (R8), DX
	VMOVUPD (R11)(DX*8), Y2
	VMULPD (R9), Y2, Y2
	VADDPD Y2, Y0, Y0
	ADDQ $4, R8
	ADDQ $32, R9

quads:
	SHRL $2, CX
	JZ   epilogue

quad:
	// Edges e..e+3: independent products, added in edge order.
	MOVL 0(R8), AX
	MOVL 4(R8), BX
	MOVL 8(R8), DX
	VMOVUPD (R11)(AX*8), Y2
	VMULPD 0(R9), Y2, Y2
	VMOVUPD (R11)(BX*8), Y3
	VMULPD 32(R9), Y3, Y3
	VMOVUPD (R11)(DX*8), Y5
	VMULPD 64(R9), Y5, Y5
	MOVL 12(R8), AX
	VMOVUPD (R11)(AX*8), Y7
	VMULPD 96(R9), Y7, Y7
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	VADDPD Y5, Y0, Y0
	VADDPD Y7, Y0, Y0
	ADDQ $16, R8
	ADDQ $128, R9
	DECL CX
	JNZ  quad

epilogue:
	// next = acc * invExit; d = |next - x|; m = max(next, 1e-300)
	VMULPD (R10), Y0, Y2
	ADDQ $32, R10
	VMOVUPD (R11)(R15*1), Y4
	VSUBPD Y4, Y2, Y6
	VANDPD Y10, Y6, Y6
	VMAXPD Y11, Y2, Y0

	// Residual guard: lanes with d > delta*m*guard might raise their
	// running maximum (the scalar kernel's exact skip condition); the
	// common all-clear case never divides.
	VMULPD Y0, Y13, Y15
	VMULPD Y12, Y15, Y15
	VCMPPD $0x1e, Y15, Y6, Y15
	VMOVMSKPD Y15, AX
	ANDQ R14, AX
	JZ   blendstore

	// Rare path: scalar rel = d/m per flagged live lane, exactly the
	// scalar kernel's divide and max update.
	VMOVUPD Y6, 0(SP)
	VMOVUPD Y0, 32(SP)
	VMOVUPD Y13, 64(SP)

slowbit:
	BSFQ AX, DX
	VMOVSD 0(SP)(DX*8), X15
	VDIVSD 32(SP)(DX*8), X15, X15
	VUCOMISD 64(SP)(DX*8), X15
	JBE  skipupd
	VMOVSD X15, 64(SP)(DX*8)

skipupd:
	LEAQ -1(AX), CX
	ANDQ CX, AX
	JNZ  slowbit
	VMOVUPD 64(SP), Y13

blendstore:
	// Frozen lanes keep their old column bits; live lanes take next.
	// The stored row joins each lane's column sum: rows in order from
	// +0, laneSums' exact accumulation.
	VBLENDVPD Y8, Y4, Y2, Y2
	VMOVUPD Y2, (R11)(R15*1)
	VADDPD Y2, Y14, Y14
	ADDQ $32, R15
	DECQ R13
	JNZ  rowloop

	VMOVUPD Y13, (R12)
	VMOVUPD Y14, (DI)
	VZEROUPPER
	RET

// func scaleGS4AVX(x, scale *float64, n int64)
// Multiplies the four lanes of n 32-byte rows starting at x by scale[0:4],
// in place: x[j*4+k] *= scale[k], the scalar scaleLanes multiply.
TEXT ·scaleGS4AVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ scale+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVUPD (SI), Y1

scaleloop:
	VMULPD (DI), Y1, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  scaleloop
	VZEROUPPER
	RET

// func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
