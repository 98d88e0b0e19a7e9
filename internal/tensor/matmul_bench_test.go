package tensor

import (
	"fmt"
	"testing"
)

// Kernel microbenchmarks at the shapes the conv/dense layers actually
// hit, for tuning the register tiling without running full models.

func benchMats(m, k, n int) (c, a, b []float64) {
	r := NewRNG(5)
	a = make([]float64, m*k)
	b = make([]float64, k*n)
	c = make([]float64, m*n)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return c, a, b
}

func BenchmarkGemm64(bm *testing.B) {
	c, a, b := benchMats(64, 64, 64)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		Gemm(c, a, b, 64, 64, 64, false)
	}
}

func BenchmarkGemmTransA64(bm *testing.B) {
	c, a, b := benchMats(64, 64, 64)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		GemmTransA(c, a, b, 64, 64, 64, false)
	}
}

func BenchmarkGemmTransB64(bm *testing.B) {
	c, a, b := benchMats(64, 64, 64)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		GemmTransB(c, a, b, 64, 64, 64, false)
	}
}

// BenchmarkGemmTransBConvShape mirrors the second conv layer of the
// benchmark LeNet: weff (84×423) times an im2col matrix (64×423).
func BenchmarkGemmTransBConvShape(bm *testing.B) {
	c, a, b := benchMats(84, 423, 64)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		GemmTransB(c, a, b, 84, 423, 64, false)
	}
}

// BenchmarkRungGemm times the rung kernel at the served LeNet's three
// conv shapes (k × n: conv1 27×256, conv2 90×64, conv3 234×16) for
// every panel height a rung adds there, so a row count that costs a
// whole tile of four shows as a flat step. B is laid out as the step
// plan gathers a 3×3 same-padded conv: per input channel three
// vertically padded copies of its plane, row (c,ky,kx) the window at
// ky·w of copy (c,kx).
func BenchmarkRungGemm(bm *testing.B) {
	for _, sh := range []struct{ ch, w int }{{3, 16}, {10, 8}, {26, 4}} {
		k, n, copyLen := 9*sh.ch, sh.w*sh.w, (sh.w+2)*sh.w
		for m := 1; m <= 8; m++ {
			bm.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(bm *testing.B) {
				_, a, _ := benchMats(m, k, 0)
				c, b := make([]float64, m*n), make([]float64, 3*sh.ch*copyLen)
				off, bias := make([]int, k), make([]float64, m)
				for p := range off {
					ch, ky, kx := p/9, p/3%3, p%3
					off[p] = (3*ch+kx)*copyLen + ky*sh.w
				}
				bm.ResetTimer()
				for i := 0; i < bm.N; i++ {
					RungGemm(c, a, b, off, bias, m, k, n, true)
				}
			})
		}
	}
}

// BenchmarkGemmConvShape is the same product as
// BenchmarkGemmTransBConvShape computed via the ikj kernel on a
// pre-transposed weight matrix (the conv forward's layout).
func BenchmarkGemmConvShape(bm *testing.B) {
	c, a, b := benchMats(64, 423, 84)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		Gemm(c, a, b, 64, 423, 84, false)
	}
}
