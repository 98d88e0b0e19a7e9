// AVX2+FMA micro-kernels for the GEMM backends in gemm_amd64.go, the
// inference plan's rung kernel and 2×2 max-pool, plus the CPUID/XGETBV
// feature probes that gate them. All float64, all ABI0 (stack
// arguments), all NOSPLIT leaf functions.
//
// Kernel shapes (see gemm_amd64.go for how they compose into the
// three GEMM row kernels):
//
//   avx2QuadAxpy2   c0,c1 += a·B panel   2 C rows × 4 B rows, the ikj
//                                        inner strip: 8 FMA chains per
//                                        4-wide column block
//   avx2QuadAxpy1   c += a·B panel       1 C row × 4 B rows
//   avx2Dot2x4      8 dot products       2 A rows × 4 B rows (A·Bᵀ)
//   avx2Dot1x4      4 dot products       1 A row × 4 B rows
//   avx2RungGemm    C = act(A·B + bias)  the rung kernel, whole product
//                                        per call: 4×8 C tiles held in
//                                        registers across the k loop,
//                                        a last 1–3 rows in 2×16 and
//                                        1×32 / 1×16 tiles
//   avx2MaxPool2x2  2×2 max of a plane   VMAXPD, four outputs a step
//
// Operand-order note: the Go assembler reverses Intel order, so
// VFMADD231PD Y8, Y0, Y12 computes Y12 += Y0*Y8.
//
// The scalar tails at the bottom of each kernel use VFMADD231SD,
// which zeroes bits 128..255 of its destination register — safe in
// the axpy kernels (destinations are freshly loaded C values) and in
// the dot kernels only because the wide accumulators are horizontally
// reduced to scalars *before* the tail runs.

//go:build !purego

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
// Caller must have verified CPUID.1:ECX.OSXSAVE first.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func avx2QuadAxpy2(c0, c1, b0, b1, b2, b3 *float64, a *[8]float64, n int)
//
// c0[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]
// c1[j] += a[4]*b0[j] + a[5]*b1[j] + a[6]*b2[j] + a[7]*b3[j]
// for j in [0,n): the two-output-row ikj strip. Each loaded B block
// feeds both C rows, so the 8 FMAs per 4-wide block are bound by FMA
// throughput, not loads.
TEXT ·avx2QuadAxpy2(SB), NOSPLIT, $0-64
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ a+48(FP), AX
	MOVQ n+56(FP), CX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX

qa2_block8:
	CMPQ DX, BX
	JGE  qa2_tail4
	VMOVUPD (R8)(DX*8), Y8
	VMOVUPD (R9)(DX*8), Y9
	VMOVUPD (R10)(DX*8), Y10
	VMOVUPD (R11)(DX*8), Y11
	VMOVUPD (DI)(DX*8), Y12
	VMOVUPD (SI)(DX*8), Y13
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VFMADD231PD Y8, Y4, Y13
	VFMADD231PD Y9, Y5, Y13
	VFMADD231PD Y10, Y6, Y13
	VFMADD231PD Y11, Y7, Y13
	VMOVUPD Y12, (DI)(DX*8)
	VMOVUPD Y13, (SI)(DX*8)
	VMOVUPD 32(R8)(DX*8), Y8
	VMOVUPD 32(R9)(DX*8), Y9
	VMOVUPD 32(R10)(DX*8), Y10
	VMOVUPD 32(R11)(DX*8), Y11
	VMOVUPD 32(DI)(DX*8), Y12
	VMOVUPD 32(SI)(DX*8), Y13
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VFMADD231PD Y8, Y4, Y13
	VFMADD231PD Y9, Y5, Y13
	VFMADD231PD Y10, Y6, Y13
	VFMADD231PD Y11, Y7, Y13
	VMOVUPD Y12, 32(DI)(DX*8)
	VMOVUPD Y13, 32(SI)(DX*8)
	ADDQ $8, DX
	JMP  qa2_block8

qa2_tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ DX, BX
	JGE  qa2_tail1
	VMOVUPD (R8)(DX*8), Y8
	VMOVUPD (R9)(DX*8), Y9
	VMOVUPD (R10)(DX*8), Y10
	VMOVUPD (R11)(DX*8), Y11
	VMOVUPD (DI)(DX*8), Y12
	VMOVUPD (SI)(DX*8), Y13
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VFMADD231PD Y8, Y4, Y13
	VFMADD231PD Y9, Y5, Y13
	VFMADD231PD Y10, Y6, Y13
	VFMADD231PD Y11, Y7, Y13
	VMOVUPD Y12, (DI)(DX*8)
	VMOVUPD Y13, (SI)(DX*8)
	ADDQ $4, DX

qa2_tail1:
	CMPQ DX, CX
	JGE  qa2_done
	VMOVSD (R8)(DX*8), X8
	VMOVSD (R9)(DX*8), X9
	VMOVSD (R10)(DX*8), X10
	VMOVSD (R11)(DX*8), X11
	VMOVSD (DI)(DX*8), X12
	VMOVSD (SI)(DX*8), X13
	VFMADD231SD X8, X0, X12
	VFMADD231SD X9, X1, X12
	VFMADD231SD X10, X2, X12
	VFMADD231SD X11, X3, X12
	VFMADD231SD X8, X4, X13
	VFMADD231SD X9, X5, X13
	VFMADD231SD X10, X6, X13
	VFMADD231SD X11, X7, X13
	VMOVSD X12, (DI)(DX*8)
	VMOVSD X13, (SI)(DX*8)
	INCQ DX
	JMP  qa2_tail1

qa2_done:
	VZEROUPPER
	RET

// func avx2QuadAxpy1(c, b0, b1, b2, b3 *float64, a *[4]float64, n int)
//
// c[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j] for j in
// [0,n): the single-row strip, used for GemmTransA rows and for row
// pairs where the zero-panel skip killed one side.
TEXT ·avx2QuadAxpy1(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ a+40(FP), AX
	MOVQ n+48(FP), CX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX

qa1_block8:
	CMPQ DX, BX
	JGE  qa1_tail4
	VMOVUPD (R8)(DX*8), Y8
	VMOVUPD (R9)(DX*8), Y9
	VMOVUPD (R10)(DX*8), Y10
	VMOVUPD (R11)(DX*8), Y11
	VMOVUPD (DI)(DX*8), Y12
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VMOVUPD Y12, (DI)(DX*8)
	VMOVUPD 32(R8)(DX*8), Y8
	VMOVUPD 32(R9)(DX*8), Y9
	VMOVUPD 32(R10)(DX*8), Y10
	VMOVUPD 32(R11)(DX*8), Y11
	VMOVUPD 32(DI)(DX*8), Y12
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VMOVUPD Y12, 32(DI)(DX*8)
	ADDQ $8, DX
	JMP  qa1_block8

qa1_tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ DX, BX
	JGE  qa1_tail1
	VMOVUPD (R8)(DX*8), Y8
	VMOVUPD (R9)(DX*8), Y9
	VMOVUPD (R10)(DX*8), Y10
	VMOVUPD (R11)(DX*8), Y11
	VMOVUPD (DI)(DX*8), Y12
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VMOVUPD Y12, (DI)(DX*8)
	ADDQ $4, DX

qa1_tail1:
	CMPQ DX, CX
	JGE  qa1_done
	VMOVSD (R8)(DX*8), X8
	VMOVSD (R9)(DX*8), X9
	VMOVSD (R10)(DX*8), X10
	VMOVSD (R11)(DX*8), X11
	VMOVSD (DI)(DX*8), X12
	VFMADD231SD X8, X0, X12
	VFMADD231SD X9, X1, X12
	VFMADD231SD X10, X2, X12
	VFMADD231SD X11, X3, X12
	VMOVSD X12, (DI)(DX*8)
	INCQ DX
	JMP  qa1_tail1

qa1_done:
	VZEROUPPER
	RET

// func avx2Dot2x4(a0, a1, b0, b1, b2, b3 *float64, k int, out *[8]float64)
//
// out[4r+c] = Σ_p ar[p]·bc[p] over p in [0,k) — the eight dot
// products of a 2-row × 4-column A·Bᵀ tile. Wide partial sums are
// reduced to scalars before the k%4 tail so the tail's VFMADD231SD
// (which zeroes the destination's upper lanes) is safe.
TEXT ·avx2Dot2x4(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), DI
	MOVQ a1+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ k+48(FP), CX
	MOVQ out+56(FP), AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-4, BX

d24_block4:
	CMPQ DX, BX
	JGE  d24_reduce
	VMOVUPD (DI)(DX*8), Y8
	VMOVUPD (SI)(DX*8), Y9
	VMOVUPD (R8)(DX*8), Y10
	VMOVUPD (R9)(DX*8), Y11
	VMOVUPD (R10)(DX*8), Y12
	VMOVUPD (R11)(DX*8), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ $4, DX
	JMP  d24_block4

d24_reduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD  X8, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD  X8, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD  X8, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD  X8, X3, X3
	VHADDPD X3, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPD  X8, X4, X4
	VHADDPD X4, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPD  X8, X5, X5
	VHADDPD X5, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPD  X8, X6, X6
	VHADDPD X6, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPD  X8, X7, X7
	VHADDPD X7, X7, X7

d24_tail:
	CMPQ DX, CX
	JGE  d24_store
	VMOVSD (DI)(DX*8), X8
	VMOVSD (SI)(DX*8), X9
	VMOVSD (R8)(DX*8), X10
	VMOVSD (R9)(DX*8), X11
	VMOVSD (R10)(DX*8), X12
	VMOVSD (R11)(DX*8), X13
	VFMADD231SD X10, X8, X0
	VFMADD231SD X11, X8, X1
	VFMADD231SD X12, X8, X2
	VFMADD231SD X13, X8, X3
	VFMADD231SD X10, X9, X4
	VFMADD231SD X11, X9, X5
	VFMADD231SD X12, X9, X6
	VFMADD231SD X13, X9, X7
	INCQ DX
	JMP  d24_tail

d24_store:
	VMOVSD X0, (AX)
	VMOVSD X1, 8(AX)
	VMOVSD X2, 16(AX)
	VMOVSD X3, 24(AX)
	VMOVSD X4, 32(AX)
	VMOVSD X5, 40(AX)
	VMOVSD X6, 48(AX)
	VMOVSD X7, 56(AX)
	VZEROUPPER
	RET

// func avx2Dot1x4(a0, b0, b1, b2, b3 *float64, k int, out *[4]float64)
//
// out[c] = Σ_p a0[p]·bc[p] over p in [0,k): the single-A-row variant
// of avx2Dot2x4 for odd trailing rows and batch-1 dense layers.
TEXT ·avx2Dot1x4(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ k+40(FP), CX
	MOVQ out+48(FP), AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-4, BX

d14_block4:
	CMPQ DX, BX
	JGE  d14_reduce
	VMOVUPD (DI)(DX*8), Y8
	VMOVUPD (R8)(DX*8), Y10
	VMOVUPD (R9)(DX*8), Y11
	VMOVUPD (R10)(DX*8), Y12
	VMOVUPD (R11)(DX*8), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	ADDQ $4, DX
	JMP  d14_block4

d14_reduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD  X8, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD  X8, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD  X8, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD  X8, X3, X3
	VHADDPD X3, X3, X3

d14_tail:
	CMPQ DX, CX
	JGE  d14_store
	VMOVSD (DI)(DX*8), X8
	VMOVSD (R8)(DX*8), X10
	VMOVSD (R9)(DX*8), X11
	VMOVSD (R10)(DX*8), X12
	VMOVSD (R11)(DX*8), X13
	VFMADD231SD X10, X8, X0
	VFMADD231SD X11, X8, X1
	VFMADD231SD X12, X8, X2
	VFMADD231SD X13, X8, X3
	INCQ DX
	JMP  d14_tail

d14_store:
	VMOVSD X0, (AX)
	VMOVSD X1, 8(AX)
	VMOVSD X2, 16(AX)
	VMOVSD X3, 24(AX)
	VZEROUPPER
	RET

// func avx2RungGemm(c, a, b []float64, off []int, bias []float64, m, k, n int, relu bool)
//
// c[i*n+j] = act(Σ_p a[i*k+p]·b[off[p]+j] + bias[i]) for i in [0,m),
// j in [0,n); m, n ≥ 1, operands validated by RungGemm. Every element
// is one chain: an accumulator starts at zero, takes one FMA per p
// ascending, then the bias and, if relu, VMAXPD against Y15 = 0 as the
// SECOND source — so NaN and -0 come out +0 — and is stored once.
// Tiles differ only in how many chains run side by side, eight where
// the columns allow, which keeps both FMA units busy through the FMA's
// four-cycle latency:
//
//   - rows in tiles of four, columns in tiles of 8, then 4, then 1;
//   - a last tile of one to three rows runs only the rows it has (a
//     tile padded to four rows would make one row cost what four do):
//     a pair in 2×16 tiles (rg_pair), the odd row in 1×32 tiles, then
//     one of 1×16 (rg_single, whose FMAs read B from memory). The n%16
//     columns these leave go through the four-row tiles, whose missing
//     rows point at row 0 (valid memory, same arithmetic) and skip
//     their stores.
//
// Four-row tiles: SI, R10, R11, R12 = ends of the tile's four A rows
// and R9 = &off[k], all indexed by BX running from -k up to 0; R13 =
// &b[j]; Y11-Y14 = the rows' biases; CX = rows in the tile; DX = j; DI
// = &c[i*n]. a, bias and m advance in their argument slots.
TEXT ·avx2RungGemm(SB), NOSPLIT, $0-145
	MOVQ c_base+0(FP), DI
	MOVQ b_base+48(FP), R8
	MOVQ off_base+72(FP), R9
	MOVQ k+128(FP), AX
	LEAQ (R9)(AX*8), R9
	VXORPD Y15, Y15, Y15

rg_rows:
	MOVQ m+120(FP), CX
	TESTQ CX, CX
	JLE  rg_done
	XORQ DX, DX
	CMPQ CX, $4
	JLT  rg_tail

rg_setup:
	MOVQ k+128(FP), AX
	SHLQ $3, AX
	MOVQ a_base+24(FP), SI
	ADDQ AX, SI
	MOVQ SI, R10
	MOVQ SI, R11
	MOVQ SI, R12
	MOVQ bias_base+96(FP), BX
	VBROADCASTSD (BX), Y11
	VMOVAPD Y11, Y12
	VMOVAPD Y11, Y13
	VMOVAPD Y11, Y14
	CMPQ CX, $2
	JLT  rg_col8
	LEAQ (SI)(AX*1), R10
	VBROADCASTSD 8(BX), Y12
	CMPQ CX, $3
	JLT  rg_col8
	LEAQ (R10)(AX*1), R11
	VBROADCASTSD 16(BX), Y13
	CMPQ CX, $4
	JLT  rg_col8
	LEAQ (R11)(AX*1), R12
	VBROADCASTSD 24(BX), Y14

rg_col8:
	MOVQ n+136(FP), AX
	SUBQ DX, AX
	CMPQ AX, $8
	JLT  rg_col4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (R8)(DX*8), R13
	MOVQ k+128(FP), BX
	NEGQ BX
	JZ   rg_fin8

rg_k8:
	MOVQ (R9)(BX*8), AX
	VMOVUPD (R13)(AX*8), Y8
	VMOVUPD 32(R13)(AX*8), Y9
	VBROADCASTSD (SI)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (R10)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y9, Y10, Y3
	VBROADCASTSD (R11)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VBROADCASTSD (R12)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y6
	VFMADD231PD Y9, Y10, Y7
	INCQ BX
	JNZ  rg_k8

rg_fin8:
	VADDPD Y11, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y12, Y3, Y3
	VADDPD Y13, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y14, Y6, Y6
	VADDPD Y14, Y7, Y7
	CMPB relu+144(FP), $0
	JEQ  rg_store8
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y3, Y3
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y5, Y5
	VMAXPD Y15, Y6, Y6
	VMAXPD Y15, Y7, Y7

rg_store8:
	LEAQ (DI)(DX*8), BX
	MOVQ n+136(FP), AX
	SHLQ $3, AX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	CMPQ CX, $2
	JLT  rg_next8
	ADDQ AX, BX
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, 32(BX)
	CMPQ CX, $3
	JLT  rg_next8
	ADDQ AX, BX
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	CMPQ CX, $4
	JLT  rg_next8
	ADDQ AX, BX
	VMOVUPD Y6, (BX)
	VMOVUPD Y7, 32(BX)

rg_next8:
	ADDQ $8, DX
	JMP  rg_col8

rg_col4:
	CMPQ AX, $4
	JLT  rg_col1
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	LEAQ (R8)(DX*8), R13
	MOVQ k+128(FP), BX
	NEGQ BX
	JZ   rg_fin4

rg_k4:
	MOVQ (R9)(BX*8), AX
	VMOVUPD (R13)(AX*8), Y8
	VBROADCASTSD (SI)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y0
	VBROADCASTSD (R10)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y2
	VBROADCASTSD (R11)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y4
	VBROADCASTSD (R12)(BX*8), Y10
	VFMADD231PD Y8, Y10, Y6
	INCQ BX
	JNZ  rg_k4

rg_fin4:
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y4, Y4
	VADDPD Y14, Y6, Y6
	CMPB relu+144(FP), $0
	JEQ  rg_store4
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y6, Y6

rg_store4:
	LEAQ (DI)(DX*8), BX
	MOVQ n+136(FP), AX
	SHLQ $3, AX
	VMOVUPD Y0, (BX)
	CMPQ CX, $2
	JLT  rg_next4
	ADDQ AX, BX
	VMOVUPD Y2, (BX)
	CMPQ CX, $3
	JLT  rg_next4
	ADDQ AX, BX
	VMOVUPD Y4, (BX)
	CMPQ CX, $4
	JLT  rg_next4
	ADDQ AX, BX
	VMOVUPD Y6, (BX)

rg_next4:
	ADDQ $4, DX

rg_col1:
	CMPQ DX, n+136(FP)
	JGE  rg_nextrows
	VXORPD X0, X0, X0
	VXORPD X2, X2, X2
	VXORPD X4, X4, X4
	VXORPD X6, X6, X6
	LEAQ (R8)(DX*8), R13
	MOVQ k+128(FP), BX
	NEGQ BX
	JZ   rg_fin1

rg_k1:
	MOVQ (R9)(BX*8), AX
	VMOVSD (R13)(AX*8), X8
	VMOVSD (SI)(BX*8), X10
	VFMADD231SD X8, X10, X0
	VMOVSD (R10)(BX*8), X10
	VFMADD231SD X8, X10, X2
	VMOVSD (R11)(BX*8), X10
	VFMADD231SD X8, X10, X4
	VMOVSD (R12)(BX*8), X10
	VFMADD231SD X8, X10, X6
	INCQ BX
	JNZ  rg_k1

rg_fin1:
	VADDSD X11, X0, X0
	VADDSD X12, X2, X2
	VADDSD X13, X4, X4
	VADDSD X14, X6, X6
	CMPB relu+144(FP), $0
	JEQ  rg_store1
	VMAXSD X15, X0, X0
	VMAXSD X15, X2, X2
	VMAXSD X15, X4, X4
	VMAXSD X15, X6, X6

rg_store1:
	LEAQ (DI)(DX*8), BX
	MOVQ n+136(FP), AX
	SHLQ $3, AX
	VMOVSD X0, (BX)
	CMPQ CX, $2
	JLT  rg_next1
	ADDQ AX, BX
	VMOVSD X2, (BX)
	CMPQ CX, $3
	JLT  rg_next1
	ADDQ AX, BX
	VMOVSD X4, (BX)
	CMPQ CX, $4
	JLT  rg_next1
	ADDQ AX, BX
	VMOVSD X6, (BX)

rg_next1:
	INCQ DX
	JMP  rg_col1

rg_nextrows:
	MOVQ k+128(FP), AX
	SHLQ $5, AX
	ADDQ AX, a_base+24(FP)
	ADDQ $32, bias_base+96(FP)
	MOVQ n+136(FP), AX
	SHLQ $5, AX
	ADDQ AX, DI
	SUBQ $4, m+120(FP)
	JMP  rg_rows

// A last tile of one to three rows. SI, R10 = ends of the pair's A rows,
// R11 = the end of the odd row's and R10 then its C row; R14 = &bias of
// the pass's first row; R12 = n*8, the C row stride. Both passes stop
// at j = n&^15 and leave the rest to rg_setup.
rg_tail:
	MOVQ k+128(FP), AX
	SHLQ $3, AX
	MOVQ a_base+24(FP), SI
	ADDQ AX, SI
	MOVQ bias_base+96(FP), R14
	MOVQ n+136(FP), R12
	SHLQ $3, R12
	MOVQ SI, R11
	MOVQ DI, R10
	CMPQ CX, $2
	JLT  rg_single
	LEAQ (SI)(AX*1), R10
	LEAQ (R10)(AX*1), R11

rg_pair:
	MOVQ n+136(FP), AX
	SUBQ DX, AX
	CMPQ AX, $16
	JLT  rg_odd
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (R8)(DX*8), R13
	MOVQ k+128(FP), BX
	NEGQ BX
	JZ   rg_pairfin

rg_pairk:
	MOVQ (R9)(BX*8), AX
	VMOVUPD (R13)(AX*8), Y8
	VMOVUPD 32(R13)(AX*8), Y9
	VMOVUPD 64(R13)(AX*8), Y10
	VMOVUPD 96(R13)(AX*8), Y11
	VBROADCASTSD (SI)(BX*8), Y12
	VFMADD231PD Y8, Y12, Y0
	VFMADD231PD Y9, Y12, Y1
	VFMADD231PD Y10, Y12, Y2
	VFMADD231PD Y11, Y12, Y3
	VBROADCASTSD (R10)(BX*8), Y13
	VFMADD231PD Y8, Y13, Y4
	VFMADD231PD Y9, Y13, Y5
	VFMADD231PD Y10, Y13, Y6
	VFMADD231PD Y11, Y13, Y7
	INCQ BX
	JNZ  rg_pairk

rg_pairfin:
	VBROADCASTSD (R14), Y12
	VBROADCASTSD 8(R14), Y13
	VADDPD Y12, Y0, Y0
	VADDPD Y12, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y12, Y3, Y3
	VADDPD Y13, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y13, Y6, Y6
	VADDPD Y13, Y7, Y7
	CMPB relu+144(FP), $0
	JEQ  rg_pairstore
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y3, Y3
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y5, Y5
	VMAXPD Y15, Y6, Y6
	VMAXPD Y15, Y7, Y7

rg_pairstore:
	LEAQ (DI)(DX*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, (BX)(R12*1)
	VMOVUPD Y5, 32(BX)(R12*1)
	VMOVUPD Y6, 64(BX)(R12*1)
	VMOVUPD Y7, 96(BX)(R12*1)
	ADDQ $16, DX
	JMP  rg_pair

rg_odd:
	CMPQ CX, $3
	JLT  rg_tailrest
	LEAQ (DI)(R12*2), R10
	ADDQ $16, R14
	XORQ DX, DX

rg_single:
	MOVQ n+136(FP), AX
	SUBQ DX, AX
	CMPQ AX, $32
	JLT  rg_single16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (R8)(DX*8), R13
	MOVQ k+128(FP), BX
	NEGQ BX
	JZ   rg_singlefin

rg_singlek:
	MOVQ (R9)(BX*8), AX
	VBROADCASTSD (R11)(BX*8), Y12
	VFMADD231PD (R13)(AX*8), Y12, Y0
	VFMADD231PD 32(R13)(AX*8), Y12, Y1
	VFMADD231PD 64(R13)(AX*8), Y12, Y2
	VFMADD231PD 96(R13)(AX*8), Y12, Y3
	VFMADD231PD 128(R13)(AX*8), Y12, Y4
	VFMADD231PD 160(R13)(AX*8), Y12, Y5
	VFMADD231PD 192(R13)(AX*8), Y12, Y6
	VFMADD231PD 224(R13)(AX*8), Y12, Y7
	INCQ BX
	JNZ  rg_singlek

rg_singlefin:
	VBROADCASTSD (R14), Y12
	VADDPD Y12, Y0, Y0
	VADDPD Y12, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y12, Y3, Y3
	VADDPD Y12, Y4, Y4
	VADDPD Y12, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y12, Y7, Y7
	CMPB relu+144(FP), $0
	JEQ  rg_singlestore
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y3, Y3
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y5, Y5
	VMAXPD Y15, Y6, Y6
	VMAXPD Y15, Y7, Y7

rg_singlestore:
	LEAQ (R10)(DX*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	ADDQ $32, DX
	JMP  rg_single

rg_single16:
	CMPQ AX, $16
	JLT  rg_tailrest
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (R8)(DX*8), R13
	MOVQ k+128(FP), BX
	NEGQ BX
	JZ   rg_single16fin

rg_single16k:
	MOVQ (R9)(BX*8), AX
	VBROADCASTSD (R11)(BX*8), Y12
	VFMADD231PD (R13)(AX*8), Y12, Y0
	VFMADD231PD 32(R13)(AX*8), Y12, Y1
	VFMADD231PD 64(R13)(AX*8), Y12, Y2
	VFMADD231PD 96(R13)(AX*8), Y12, Y3
	INCQ BX
	JNZ  rg_single16k

rg_single16fin:
	VBROADCASTSD (R14), Y12
	VADDPD Y12, Y0, Y0
	VADDPD Y12, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y12, Y3, Y3
	CMPB relu+144(FP), $0
	JEQ  rg_single16store
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y3, Y3

rg_single16store:
	LEAQ (R10)(DX*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ $16, DX

rg_tailrest:
	CMPQ DX, n+136(FP)
	JLT  rg_setup

rg_done:
	VZEROUPPER
	RET

// func avx2MaxPool2x2(dst, src []float64, h, w int)
//
// dst[y*(w/2)+x] = the largest of src's 2×2 window at (2y, 2x) for
// y < h/2, x < w/2, operands validated by MaxPool2x2, by VMAXPD — on
// inputs ≥ +0 and free of NaN the exact max, bitwise the scalar
// kernel's integer max. Four outputs a step: the vertical maxima of
// eight columns, their pairs split by UNPCKL/HPD and maxed, VPERMPD
// putting the four back in order; then two, then one. SI, R10 = the
// window's input rows, DI = the output row, BX = 2x, DX = x, R9 = w/2,
// R8 = two input rows in bytes.
TEXT ·avx2MaxPool2x2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ h+48(FP), CX
	SHRQ $1, CX
	JZ   mp_done
	MOVQ w+56(FP), R8
	MOVQ R8, R9
	SHRQ $1, R9
	LEAQ (SI)(R8*8), R10
	SHLQ $4, R8

mp_rows:
	XORQ DX, DX
	XORQ BX, BX

mp_col4:
	MOVQ R9, AX
	SUBQ DX, AX
	CMPQ AX, $4
	JLT  mp_col2
	VMOVUPD (SI)(BX*8), Y0
	VMOVUPD 32(SI)(BX*8), Y1
	VMAXPD (R10)(BX*8), Y0, Y0
	VMAXPD 32(R10)(BX*8), Y1, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMAXPD Y3, Y2, Y2
	VPERMPD $0xd8, Y2, Y2
	VMOVUPD Y2, (DI)(DX*8)
	ADDQ $4, DX
	ADDQ $8, BX
	JMP  mp_col4

mp_col2:
	CMPQ AX, $2
	JLT  mp_col1
	VMOVUPD (SI)(BX*8), X0
	VMOVUPD 16(SI)(BX*8), X1
	VMAXPD (R10)(BX*8), X0, X0
	VMAXPD 16(R10)(BX*8), X1, X1
	VUNPCKLPD X1, X0, X2
	VUNPCKHPD X1, X0, X3
	VMAXPD X3, X2, X2
	VMOVUPD X2, (DI)(DX*8)
	ADDQ $2, DX
	ADDQ $4, BX
	SUBQ $2, AX

mp_col1:
	TESTQ AX, AX
	JZ   mp_next
	VMOVUPD (SI)(BX*8), X0
	VMAXPD (R10)(BX*8), X0, X0
	VPERMILPD $1, X0, X1
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)(DX*8)

mp_next:
	ADDQ R8, SI
	ADDQ R8, R10
	LEAQ (DI)(R9*8), DI
	DECQ CX
	JNZ  mp_rows

mp_done:
	VZEROUPPER
	RET
