//go:build amd64 && !purego

package tensor

import (
	"os"
	"testing"
)

// skipNoAVX2 skips tests that need the assembly kernels on machines
// without them.
func skipNoAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2FMA {
		t.Skip("CPU lacks AVX2+FMA")
	}
}

// TestSIMDRowKernelsMatchScalar drives the three AVX2 row kernels
// directly against their scalar references over the full shape grid,
// in both overwrite and accumulate modes, on inputs salted with exact
// zeros so the zero-panel skips fire, and the rung kernel against the
// naive triple loop over the rung grid (its Go twin faces the same grid
// in TestForcedScalarBackend). 1e-12 is the repo-wide kernel
// equivalence budget.
func TestSIMDRowKernelsMatchScalar(t *testing.T) {
	skipNoAVX2(t)
	checkRungGrid(t, "avx2RungGemm", avx2RungGemm)
	checkPoolGrid(t, "avx2MaxPool2x2", avx2MaxPool2x2)
	r := NewRNG(71)
	checkAllShapes(t, func(t *testing.T, m, k, n int) {
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		at := randMat(r, k, m)
		bt := randMat(r, n, k)
		seed := randMat(r, m, n)
		for _, acc := range []bool{false, true} {
			want, got := seed.Clone(), seed.Clone()
			gemmRows(want.Data(), a.Data(), b.Data(), 0, m, k, n, acc)
			gemmRowsAVX2(got.Data(), a.Data(), b.Data(), 0, m, k, n, acc)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("gemmRowsAVX2 %dx%dx%d acc=%v diverges by %g", m, k, n, acc, d)
			}
			want, got = seed.Clone(), seed.Clone()
			gemmTransARows(want.Data(), at.Data(), b.Data(), 0, m, m, k, n, acc)
			gemmTransARowsAVX2(got.Data(), at.Data(), b.Data(), 0, m, m, k, n, acc)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("gemmTransARowsAVX2 %dx%dx%d acc=%v diverges by %g", m, k, n, acc, d)
			}
			want, got = seed.Clone(), seed.Clone()
			gemmTransBRows(want.Data(), a.Data(), bt.Data(), 0, m, k, n, acc)
			gemmTransBRowsAVX2(got.Data(), a.Data(), bt.Data(), 0, m, k, n, acc)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("gemmTransBRowsAVX2 %dx%dx%d acc=%v diverges by %g", m, k, n, acc, d)
			}
		}
	})
}

// TestSIMDZeroPanelInputs pins the masked-weight fast paths: fully
// zero A matrices, zero row pairs and zero 4-panels must produce
// exactly the scalar kernels' outputs (including clearing previously
// dirty C in overwrite mode).
func TestSIMDZeroPanelInputs(t *testing.T) {
	skipNoAVX2(t)
	r := NewRNG(73)
	m, k, n := 6, 17, 9
	cases := map[string]func(*Tensor){
		"all_zero":   func(a *Tensor) { a.Zero() },
		"zero_row0":  func(a *Tensor) { clear(a.Data()[:k]) },
		"zero_row1":  func(a *Tensor) { clear(a.Data()[k : 2*k]) },
		"zero_panel": func(a *Tensor) { clear(a.Data()[2*k : 2*k+4]) },
	}
	for name, mutate := range cases {
		a := randMat(r, m, k)
		mutate(a)
		b := randMat(r, k, n)
		bt := randMat(r, n, k)
		dirty := Full(3.5, m, n)
		want, got := dirty.Clone(), dirty.Clone()
		gemmRows(want.Data(), a.Data(), b.Data(), 0, m, k, n, false)
		gemmRowsAVX2(got.Data(), a.Data(), b.Data(), 0, m, k, n, false)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("%s: gemmRowsAVX2 diverges by %g", name, d)
		}
		want, got = dirty.Clone(), dirty.Clone()
		gemmTransBRows(want.Data(), a.Data(), bt.Data(), 0, m, k, n, false)
		gemmTransBRowsAVX2(got.Data(), a.Data(), bt.Data(), 0, m, k, n, false)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("%s: gemmTransBRowsAVX2 diverges by %g", name, d)
		}
	}
}

// TestSIMDWidthInvariance pins the bitwise property the anytime
// reproduction builds on: a given output element of C = A·B must
// round IDENTICALLY no matter how many further columns B has. The
// conv forward multiplies by a compact gather whose column count is
// the subnet's active-filter count, and a reused unit's activation
// must not change when the subnet grows (the construction tests
// compare across widths with exact equality) — so the vector body
// and the scalar column tail of the assembly must apply the same
// fused-FMA chain, and narrow products must not fall back to the
// unfused scalar kernel. The rung kernel owes the same in both
// directions: more columns and more panel rows.
func TestSIMDWidthInvariance(t *testing.T) {
	skipNoAVX2(t)
	checkRungWidthInvariance(t, "avx2RungGemm", avx2RungGemm)
	r := NewRNG(79)
	m, k := 7, 21
	a := randMat(r, m, k)
	wide := randMat(r, k, 16)
	for _, n1 := range []int{1, 2, 3, 5, 8, 13} {
		for _, n2 := range []int{n1 + 1, n1 + 3} {
			narrow := New(k, n1)
			for p := 0; p < k; p++ {
				copy(narrow.Data()[p*n1:(p+1)*n1], wide.Data()[p*16:p*16+n1])
			}
			prefix := New(k, n2)
			for p := 0; p < k; p++ {
				copy(prefix.Data()[p*n2:(p+1)*n2], wide.Data()[p*16:p*16+n2])
			}
			c1 := New(m, n1)
			c2 := New(m, n2)
			gemmRowsAVX2(c1.Data(), a.Data(), narrow.Data(), 0, m, k, n1, false)
			gemmRowsAVX2(c2.Data(), a.Data(), prefix.Data(), 0, m, k, n2, false)
			for i := 0; i < m; i++ {
				for j := 0; j < n1; j++ {
					if c1.At(i, j) != c2.At(i, j) {
						t.Fatalf("n=%d vs n=%d: C[%d,%d] rounds differently: %v vs %v",
							n1, n2, i, j, c1.At(i, j), c2.At(i, j))
					}
				}
			}
		}
	}
}

// TestBackendCrossCheck forces each backend in turn through the
// public API on identical inputs — including the forced-parallel
// work-stealing path — and cross-checks the outputs. This is the test
// that keeps both backends green forever regardless of which one CI's
// hardware selects.
func TestBackendCrossCheck(t *testing.T) {
	skipNoAVX2(t)
	restoreBackend(t)
	for _, use := range []func(){useScalarBackend, useAVX2Backend} {
		use()
		checkRungGrid(t, Backend()+" RungGemm", RungGemm)
		checkPoolGrid(t, Backend()+" MaxPool2x2", MaxPool2x2)
	}
	for _, parallel := range []bool{false, true} {
		if parallel {
			forceParallel(t)
		}
		r := NewRNG(77)
		checkAllShapes(t, func(t *testing.T, m, k, n int) {
			a := randMat(r, m, k)
			b := randMat(r, k, n)
			at := randMat(r, k, m)
			bt := randMat(r, n, k)

			useScalarBackend()
			s1 := MatMul(a, b)
			s2 := MatMulTransA(at, b)
			s3 := MatMulTransB(a, bt)
			useAVX2Backend()
			v1 := MatMul(a, b)
			v2 := MatMulTransA(at, b)
			v3 := MatMulTransB(a, bt)

			if d := maxAbsDiff(v1, s1); d > 1e-12 {
				t.Fatalf("parallel=%v MatMul %dx%dx%d: backends diverge by %g", parallel, m, k, n, d)
			}
			if d := maxAbsDiff(v2, s2); d > 1e-12 {
				t.Fatalf("parallel=%v MatMulTransA %dx%dx%d: backends diverge by %g", parallel, m, k, n, d)
			}
			if d := maxAbsDiff(v3, s3); d > 1e-12 {
				t.Fatalf("parallel=%v MatMulTransB %dx%dx%d: backends diverge by %g", parallel, m, k, n, d)
			}
		})
	}
}

// TestNoSIMDEnvOverride checks the runtime escape hatch: with
// STEPPINGNET_NOSIMD set, backend selection must refuse SIMD even on
// capable hardware.
func TestNoSIMDEnvOverride(t *testing.T) {
	t.Setenv(NoSIMDEnv, "1")
	if simdWanted() {
		t.Fatal("simdWanted() true despite STEPPINGNET_NOSIMD")
	}
	os.Unsetenv(NoSIMDEnv)
	if hasAVX2FMA && !simdWanted() {
		t.Fatal("simdWanted() false on AVX2 hardware without the override")
	}
}
