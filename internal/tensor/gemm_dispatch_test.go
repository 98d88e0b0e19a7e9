package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// restoreBackend reinstalls whatever backend the process selected at
// startup once a backend-forcing test finishes.
func restoreBackend(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		if simdWanted() {
			restoreSIMDBackend()
		} else {
			useScalarBackend()
		}
	})
}

// TestBackendName pins the dispatch contract: the reported backend is
// one of the two known names, and builds that cannot ever select SIMD
// (purego, non-amd64) report scalar.
func TestBackendName(t *testing.T) {
	switch b := Backend(); b {
	case "scalar", "avx2":
	default:
		t.Fatalf("unknown backend %q", b)
	}
	if !simdAvailable() && Backend() != "scalar" {
		t.Fatalf("SIMD-incapable build reports backend %q, want scalar", Backend())
	}
}

// TestForcedScalarBackend checks the runtime fallback arm: with the
// scalar kernels forced, the full property grid still holds against
// the naive reference, serial and forced-parallel.
func TestForcedScalarBackend(t *testing.T) {
	restoreBackend(t)
	useScalarBackend()
	if Backend() != "scalar" {
		t.Fatalf("backend %q after useScalarBackend", Backend())
	}
	r := NewRNG(99)
	checkAllShapes(t, func(t *testing.T, m, k, n int) {
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		if d := maxAbsDiff(MatMul(a, b), naiveMatMul(a, b, false, false)); d > 1e-12 {
			t.Fatalf("scalar MatMul %dx%dx%d diverges by %g", m, k, n, d)
		}
	})
	checkRungGrid(t, "scalar RungGemm", RungGemm)
	checkRungWidthInvariance(t, "scalar RungGemm", RungGemm)
	checkPoolGrid(t, "scalar MaxPool2x2", MaxPool2x2)
}

// rungFn is RungGemm's signature: the public entry point or one of
// the kernels behind it.
type rungFn func(c, a, b []float64, off []int, bias []float64, m, k, n int, relu bool)

// rungCase is one RungGemm problem. The views of b overlap and come in
// no particular order (a view may repeat), as a convolution's shifted
// windows do; a, b and bias are salted with +0 and -0, and with NaN
// when asked.
type rungCase struct {
	a, b, bias []float64
	off        []int
	m, k, n    int
}

func newRungCase(r *RNG, m, k, n int, zeroBias, nan bool) rungCase {
	salted := func(size int) []float64 {
		v := make([]float64, size)
		for i := range v {
			switch r.Intn(8) {
			case 0: // +0
			case 1:
				v[i] = math.Copysign(0, -1)
			default:
				v[i] = r.NormFloat64()
			}
		}
		if nan && size > 0 {
			v[r.Intn(size)] = math.NaN()
		}
		return v
	}
	rc := rungCase{a: salted(m * k), b: salted(n + k/2 + 3), bias: salted(m), off: make([]int, k), m: m, k: k, n: n}
	for p := range rc.off {
		rc.off[p] = r.Intn(len(rc.b) - n + 1)
	}
	if zeroBias {
		clear(rc.bias)
	}
	return rc
}

// naive is the reference triple loop.
func (rc rungCase) naive(relu bool) []float64 {
	c := make([]float64, rc.m*rc.n)
	for i := 0; i < rc.m; i++ {
		for j := 0; j < rc.n; j++ {
			s := 0.0
			for p, o := range rc.off {
				s += rc.a[i*rc.k+p] * rc.b[o+j]
			}
			if s += rc.bias[i]; relu && !(s > 0) {
				s = 0
			}
			c[i*rc.n+j] = s
		}
	}
	return c
}

// rungDiff is the largest element difference; a NaN on one side only
// is infinitely far.
func rungDiff(got, want []float64) float64 {
	worst := 0.0
	for i, w := range want {
		switch g := got[i]; {
		case math.IsNaN(g) != math.IsNaN(w):
			return math.Inf(1)
		case math.Abs(g-w) > worst:
			worst = math.Abs(g - w)
		}
	}
	return worst
}

// checkRungGrid holds fn to the naive triple loop within 1e-12 over
// every row-tile remainder (m 1…9), every column-tile remainder and
// the served widths (n 1…19, 64, 256), k 0…13, 27 and 250, with zero and
// signed bias, with and without ReLU, and with NaN inputs. The output
// is pre-filled so an element fn does not store shows, and has a guard
// row it must not touch.
func checkRungGrid(t *testing.T, name string, fn rungFn) {
	t.Helper()
	r := NewRNG(83)
	ns := []int{64, 256}
	for n := 1; n <= 19; n++ {
		ns = append(ns, n)
	}
	ks := []int{27, 250}
	for k := 0; k <= 13; k++ { // k = 0: bias and activation alone
		ks = append(ks, k)
	}
	for m := 1; m <= 9; m++ {
		for _, n := range ns {
			for _, k := range ks {
				for variant := 0; variant < 8; variant++ {
					zeroBias, relu, nan := variant&1 != 0, variant&2 != 0, variant&4 != 0
					rc := newRungCase(r, m, k, n, zeroBias, nan)
					got := make([]float64, (m+1)*n)
					for i := range got {
						got[i] = 77
					}
					fn(got, rc.a, rc.b, rc.off, rc.bias, m, k, n, relu)
					if d := rungDiff(got[:m*n], rc.naive(relu)); d > 1e-12 {
						t.Fatalf("%s %dx%dx%d zeroBias=%v relu=%v nan=%v diverges from naive by %g", name, m, k, n, zeroBias, relu, nan, d)
					}
					for _, v := range got[m*n:] {
						if v != 77 {
							t.Fatalf("%s %dx%dx%d wrote past C", name, m, k, n)
						}
					}
				}
			}
		}
	}
}

// checkRungWidthInvariance pins the rounding contract the engine's
// bitwise guarantees rest on: an output element has the same BITS when
// the product grows more columns and more panel rows around it, so it
// cannot depend on which tile, body or tail computed it.
func checkRungWidthInvariance(t *testing.T, name string, fn rungFn) {
	t.Helper()
	r := NewRNG(89)
	for _, k := range []int{1, 5, 27, 250} {
		big := newRungCase(r, 9, k, 19, false, false)
		want := make([]float64, big.m*big.n)
		fn(want, big.a, big.b, big.off, big.bias, big.m, k, big.n, true)
		for m := 1; m <= big.m; m++ {
			for n := 1; n <= big.n; n++ {
				got := make([]float64, m*n)
				fn(got, big.a, big.b, big.off, big.bias, m, k, n, true)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						if g, w := got[i*n+j], want[i*big.n+j]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s k=%d: C[%d,%d] is %v in a %dx%d product, %v in %dx%d", name, k, i, j, g, m, n, w, big.m, big.n)
						}
					}
				}
			}
		}
	}
}

// poolFn is MaxPool2x2's signature: the public entry point or one of
// the kernels behind it.
type poolFn func(dst, src []float64, h, w int)

// checkPoolGrid holds fn bitwise to the scalar integer max over plane
// heights 2…9 and widths 2…18, odd ones included, on what a ReLU
// leaves: positive normals, +0, subnormals and MaxFloat64, alone and
// mixed. The output has a guard element fn must not touch.
func checkPoolGrid(t *testing.T, name string, fn poolFn) {
	t.Helper()
	r := NewRNG(97)
	special := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64}
	for h := 2; h <= 9; h++ {
		for w := 2; w <= 18; w++ {
			for variant := 0; variant < 3; variant++ { // normals, specials, mixed
				src := make([]float64, h*w)
				for i := range src {
					if src[i] = math.Abs(r.NormFloat64()); variant == 1 || variant == 2 && r.Intn(2) == 0 {
						src[i] = special[r.Intn(len(special))]
					}
				}
				n := (h / 2) * (w / 2)
				want, got := make([]float64, n+1), make([]float64, n+1)
				want[n], got[n] = 77, 77
				maxPool2x2(want, src, h, w)
				fn(got, src, h, w)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %dx%d variant %d: dst[%d] = %v, the integer max is %v", name, h, w, variant, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMaxPool2x2RejectsBadOperands: a slice too short for the shape
// panics with the entry point's own message on the active backend.
func TestMaxPool2x2RejectsBadOperands(t *testing.T) {
	for name, c := range map[string]struct {
		dst, src []float64
		h, w     int
	}{
		"short src":  {make([]float64, 4), make([]float64, 15), 4, 4},
		"short dst":  {make([]float64, 3), make([]float64, 16), 4, 4},
		"negative h": {nil, nil, -2, 4},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "tensor: MaxPool2x2") {
					t.Errorf("%s: want a MaxPool2x2 panic, got %q", name, msg)
				}
			}()
			MaxPool2x2(c.dst, c.src, c.h, c.w)
		}()
	}
}

// TestRungGemmRejectsBadOperands feeds the entry point short slices
// and views that leave b: it must panic with its own message before
// any kernel runs, on whichever backend is active (ci.sh runs both).
func TestRungGemmRejectsBadOperands(t *testing.T) {
	const m, k, n = 3, 4, 8
	type operands struct {
		c, a, b, bias []float64
		off           []int
	}
	cases := map[string]func(*operands){
		"short a":         func(o *operands) { o.a = o.a[:m*k-1] },
		"short c":         func(o *operands) { o.c = o.c[:m*n-1] },
		"short bias":      func(o *operands) { o.bias = o.bias[:m-1] },
		"short off":       func(o *operands) { o.off = o.off[:k-1] },
		"negative offset": func(o *operands) { o.off[2] = -1 },
		"offset past b":   func(o *operands) { o.off[1] = 6 },
		"empty b":         func(o *operands) { o.b = nil },
	}
	for name, breakIt := range cases {
		o := operands{
			c: make([]float64, m*n), a: make([]float64, m*k), b: make([]float64, n+5),
			bias: make([]float64, m), off: []int{0, 5, 2, 1},
		}
		RungGemm(o.c, o.a, o.b, o.off, o.bias, m, k, n, true) // the unbroken operands are accepted
		breakIt(&o)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "tensor: RungGemm") {
					t.Errorf("%s: want a RungGemm panic, got %q", name, msg)
				}
			}()
			RungGemm(o.c, o.a, o.b, o.off, o.bias, m, k, n, true)
		}()
	}
}
