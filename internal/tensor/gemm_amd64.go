//go:build amd64 && !purego

package tensor

import "os"

// AVX2+FMA GEMM backend: runtime feature detection and the three
// row-range kernels built from the assembly micro-kernels in
// gemm_amd64.s. The kernels keep the scalar implementations' exact
// structure — two C rows per pass, k unrolled 4-wide, all-zero
// 4-panels of A skipped — and delegate only the vectorizable inner
// strips to assembly, so edge handling (k%4, n<4, odd rows) reuses
// the scalar code paths and the zero-panel skip for masked weights is
// preserved bit-for-bit.

// Feature probes implemented in gemm_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// Assembly micro-kernels (gemm_amd64.s). The noescape promise is what
// lets callers pass stack-allocated coefficient arrays.

//go:noescape
func avx2QuadAxpy2(c0, c1, b0, b1, b2, b3 *float64, a *[8]float64, n int)

//go:noescape
func avx2QuadAxpy1(c, b0, b1, b2, b3 *float64, a *[4]float64, n int)

//go:noescape
func avx2Dot2x4(a0, a1, b0, b1, b2, b3 *float64, k int, out *[8]float64)

//go:noescape
func avx2Dot1x4(a0, b0, b1, b2, b3 *float64, k int, out *[4]float64)

//go:noescape
func avx2RungGemm(c, a, b []float64, off []int, bias []float64, m, k, n int, relu bool)

//go:noescape
func avx2MaxPool2x2(dst, src []float64, h, w int)

// hasAVX2FMA records the CPUID verdict for this process.
var hasAVX2FMA = detectAVX2FMA()

// detectAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// kernels: FMA, AVX and OSXSAVE in CPUID.1:ECX, YMM state enabled in
// XCR0, and AVX2 in CPUID.7.0:EBX.
func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// The OS must context-switch XMM and YMM state (XCR0 bits 1+2).
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// simdAvailable reports whether this build could select the SIMD
// backend on this machine (ignoring the environment override).
func simdAvailable() bool { return hasAVX2FMA }

// simdWanted folds in the STEPPINGNET_NOSIMD escape hatch.
func simdWanted() bool { return hasAVX2FMA && os.Getenv(NoSIMDEnv) == "" }

func init() {
	if simdWanted() {
		useAVX2Backend()
	}
}

// restoreSIMDBackend reinstalls the backend simdWanted selects, for
// tests that temporarily forced the scalar kernels.
func restoreSIMDBackend() { useAVX2Backend() }

// useAVX2Backend selects the assembly kernels. Callers must have
// checked hasAVX2FMA; like useScalarBackend it must not race with
// running kernels (it is an init/test hook, not a runtime switch).
func useAVX2Backend() {
	backendName = "avx2"
	gemmRowsImpl = gemmRowsAVX2
	gemmTransARowsImpl = gemmTransARowsAVX2
	gemmTransBRowsImpl = gemmTransBRowsAVX2
	rungGemmImpl = avx2RungGemm
	maxPool2x2Impl = avx2MaxPool2x2
}

// gemmRowsAVX2 computes rows [i0,i1) of C (+)= A·B, vectorizing the
// two-row × four-k inner strips of the scalar gemmRows.
//
// Width invariance: a given (row, column) element must round
// identically no matter how many columns the product has — the
// reproduction compares activations across subnet widths
// bit-for-bit (a reused unit's value may not change when the width
// grows). The assembly's scalar column tail applies the same fused
// FMA chain per element as its vector body, so narrow products go
// through the assembly too; falling back to the unfused scalar
// kernel for n<4 would make the same logical dot product round
// differently at different widths.
func gemmRowsAVX2(c, a, b []float64, i0, i1, k, n int, accumulate bool) {
	var quad2 [8]float64
	var quad1 [4]float64
	i := i0
	for ; i+2 <= i1; i += 2 {
		arow0 := a[i*k : (i+1)*k]
		arow1 := a[(i+1)*k : (i+2)*k]
		crow0 := c[i*n : (i+1)*n : (i+1)*n]
		crow1 := c[(i+1)*n : (i+2)*n : (i+2)*n]
		if !accumulate {
			clear(crow0)
			clear(crow1)
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a00, a01, a02, a03 := arow0[p], arow0[p+1], arow0[p+2], arow0[p+3]
			a10, a11, a12, a13 := arow1[p], arow1[p+1], arow1[p+2], arow1[p+3]
			z0 := a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0
			z1 := a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0
			switch {
			case z0 && z1:
				// Fully masked 4-panel: skip, same as the scalar kernel.
			case z1:
				quad1[0], quad1[1], quad1[2], quad1[3] = a00, a01, a02, a03
				avx2QuadAxpy1(&crow0[0], &b[p*n], &b[(p+1)*n], &b[(p+2)*n], &b[(p+3)*n], &quad1, n)
			case z0:
				quad1[0], quad1[1], quad1[2], quad1[3] = a10, a11, a12, a13
				avx2QuadAxpy1(&crow1[0], &b[p*n], &b[(p+1)*n], &b[(p+2)*n], &b[(p+3)*n], &quad1, n)
			default:
				quad2[0], quad2[1], quad2[2], quad2[3] = a00, a01, a02, a03
				quad2[4], quad2[5], quad2[6], quad2[7] = a10, a11, a12, a13
				avx2QuadAxpy2(&crow0[0], &crow1[0], &b[p*n], &b[(p+1)*n], &b[(p+2)*n], &b[(p+3)*n], &quad2, n)
			}
		}
		for ; p < k; p++ {
			a0, a1 := arow0[p], arow1[p]
			if a0 == 0 && a1 == 0 {
				continue
			}
			brow := b[p*n : p*n+n : p*n+n]
			_ = brow[len(crow0)-1]
			_ = crow1[len(crow0)-1]
			for j := range crow0 {
				v := brow[j]
				crow0[j] += a0 * v
				crow1[j] += a1 * v
			}
		}
	}
	for ; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n : (i+1)*n]
		if !accumulate {
			clear(crow)
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			quad1[0], quad1[1], quad1[2], quad1[3] = a0, a1, a2, a3
			avx2QuadAxpy1(&crow[0], &b[p*n], &b[(p+1)*n], &b[(p+2)*n], &b[(p+3)*n], &quad1, n)
		}
		for ; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n : p*n+n]
			_ = brow[len(crow)-1]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// gemmTransARowsAVX2 computes rows [i0,i1) of C (+)= Aᵀ·B. Row i
// reads column i of A (stride m); each non-zero 4-group feeds one
// vectorized quad-axpy over the B panel. Narrow products stay on the
// assembly path for the same width-invariance reason as
// gemmRowsAVX2.
func gemmTransARowsAVX2(c, a, b []float64, i0, i1, m, k, n int, accumulate bool) {
	var quad1 [4]float64
	for i := i0; i < i1; i++ {
		crow := c[i*n : (i+1)*n : (i+1)*n]
		if !accumulate {
			clear(crow)
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			quad1[0], quad1[1], quad1[2], quad1[3] = a0, a1, a2, a3
			avx2QuadAxpy1(&crow[0], &b[p*n], &b[(p+1)*n], &b[(p+2)*n], &b[(p+3)*n], &quad1, n)
		}
		for ; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n : p*n+n]
			_ = brow[len(crow)-1]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// gemmTransBRowsAVX2 computes rows [i0,i1) of C (+)= A·Bᵀ as 2×4
// tiles of dot products; all-zero rows of A (inactive filters)
// short-circuit exactly like the scalar kernel.
func gemmTransBRowsAVX2(c, a, b []float64, i0, i1, k, n int, accumulate bool) {
	if k < 4 {
		gemmTransBRows(c, a, b, i0, i1, k, n, accumulate)
		return
	}
	var sums [8]float64
	i := i0
	for ; i+2 <= i1; i += 2 {
		arow0 := a[i*k : (i+1)*k : (i+1)*k]
		arow1 := a[(i+1)*k : (i+2)*k : (i+2)*k]
		crow0 := c[i*n : (i+1)*n : (i+1)*n]
		crow1 := c[(i+1)*n : (i+2)*n : (i+2)*n]
		z0, z1 := allZero(arow0), allZero(arow1)
		if z0 || z1 {
			if !accumulate {
				if z0 {
					clear(crow0)
				}
				if z1 {
					clear(crow1)
				}
			}
			if !z0 {
				transBRowAVX2(crow0, arow0, b, k, n, accumulate)
			}
			if !z1 {
				transBRowAVX2(crow1, arow1, b, k, n, accumulate)
			}
			continue
		}
		j := 0
		for ; j+4 <= n; j += 4 {
			avx2Dot2x4(&arow0[0], &arow1[0], &b[j*k], &b[(j+1)*k], &b[(j+2)*k], &b[(j+3)*k], k, &sums)
			if accumulate {
				crow0[j] += sums[0]
				crow0[j+1] += sums[1]
				crow0[j+2] += sums[2]
				crow0[j+3] += sums[3]
				crow1[j] += sums[4]
				crow1[j+1] += sums[5]
				crow1[j+2] += sums[6]
				crow1[j+3] += sums[7]
			} else {
				crow0[j], crow0[j+1], crow0[j+2], crow0[j+3] = sums[0], sums[1], sums[2], sums[3]
				crow1[j], crow1[j+1], crow1[j+2], crow1[j+3] = sums[4], sums[5], sums[6], sums[7]
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k : j*k+k]
			var s0, s1 float64
			for p, a0 := range arow0 {
				s0 += a0 * brow[p]
				s1 += arow1[p] * brow[p]
			}
			if accumulate {
				crow0[j] += s0
				crow1[j] += s1
			} else {
				crow0[j] = s0
				crow1[j] = s1
			}
		}
	}
	for ; i < i1; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		crow := c[i*n : (i+1)*n : (i+1)*n]
		if allZero(arow) {
			if !accumulate {
				clear(crow)
			}
			continue
		}
		transBRowAVX2(crow, arow, b, k, n, accumulate)
	}
}

// transBRowAVX2 computes one C row of A·Bᵀ, four dot products per
// assembly call.
func transBRowAVX2(crow, arow, b []float64, k, n int, accumulate bool) {
	var sums [4]float64
	j := 0
	for ; j+4 <= n; j += 4 {
		avx2Dot1x4(&arow[0], &b[j*k], &b[(j+1)*k], &b[(j+2)*k], &b[(j+3)*k], k, &sums)
		if accumulate {
			crow[j] += sums[0]
			crow[j+1] += sums[1]
			crow[j+2] += sums[2]
			crow[j+3] += sums[3]
		} else {
			crow[j], crow[j+1], crow[j+2], crow[j+3] = sums[0], sums[1], sums[2], sums[3]
		}
	}
	for ; j < n; j++ {
		brow := b[j*k : j*k+k : j*k+k]
		var s float64
		for p, av := range arow {
			s += av * brow[p]
		}
		if accumulate {
			crow[j] += s
		} else {
			crow[j] = s
		}
	}
}
