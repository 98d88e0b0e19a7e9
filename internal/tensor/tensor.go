// Package tensor provides the dense numerical arrays underlying the
// SteppingNet reproduction: shapes, element access, BLAS-free linear
// algebra, im2col-based convolution support and deterministic random
// initialization. It is deliberately small — float64, row-major,
// CPU-only — because the paper's claims concern accuracy versus MAC
// counts, not wall-clock throughput on accelerators.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
// The zero value is an empty tensor; use New, Zeros or FromSlice to
// construct usable values.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. It panics if
// any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is
// used directly (not copied); it panics if the length does not match
// the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegativeDim(shape)
		}
		n *= d
	}
	return n
}

// panicNegativeDim lives outside checkShape so the error formatting
// does not make every caller's variadic shape argument escape to the
// heap: keeping checkShape allocation-free is what lets Pool.Get and
// New be called in hot loops with stack-allocated shapes.
//
//go:noinline
func panicNegativeDim(shape []int) {
	panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
}

// Shape returns the tensor's shape. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutations are
// visible to the tensor; this is the intended fast path for layer
// kernels.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view over the same data with a new shape. It
// panics if the volumes differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// ViewRows repoints t at rows [b0,b1) of the batch-major tensor src
// (no copy) and returns t. Reusing one header tensor this way keeps
// hot paths that re-view every call — the batch-parallel inference
// engine's shards — allocation-free; the caller must ensure t is not
// aliased elsewhere and must never Put a view into a Pool (it shares
// src's backing array).
func (t *Tensor) ViewRows(src *Tensor, b0, b1 int) *Tensor {
	rowLen := len(src.data) / src.shape[0]
	t.data = src.data[b0*rowLen : b1*rowLen]
	t.shape = append(t.shape[:0], src.shape...)
	t.shape[0] = b1 - b0
	return t
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.Offset(idx...)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.Offset(idx...)] = v }

// Offset converts a multi-dimensional index to a flat offset.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// CopyFrom copies src's contents into t. Shapes must have equal
// volume; the shapes themselves may differ (a deliberate convenience
// for flattening layers).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom volume mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Add accumulates o into t element-wise in place.
func (t *Tensor) Add(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic("tensor: Add volume mismatch")
	}
	for i, v := range o.data {
		t.data[i] += v
	}
}

// Sub subtracts o from t element-wise in place.
func (t *Tensor) Sub(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic("tensor: Sub volume mismatch")
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
}

// Mul multiplies t by o element-wise in place.
func (t *Tensor) Mul(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic("tensor: Mul volume mismatch")
	}
	for i, v := range o.data {
		t.data[i] *= v
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AXPY computes t += a*o in place.
func (t *Tensor) AXPY(a float64, o *Tensor) {
	if len(t.data) != len(o.data) {
		panic("tensor: AXPY volume mismatch")
	}
	for i, v := range o.data {
		t.data[i] += a * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// AbsMax returns the maximum absolute element, or 0 for an empty
// tensor.
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g … %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return b.String()
}

// Equal reports whether two tensors have the same shape and all
// elements within tol of each other.
func Equal(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
