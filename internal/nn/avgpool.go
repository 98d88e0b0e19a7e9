package nn

import (
	"fmt"

	"steppingnet/internal/tensor"
)

// AvgPool2D performs non-overlapping K×K average pooling per channel
// — the pooling the original LeNet used. Like MaxPool2D it is
// per-channel and therefore preserves the incremental property.
type AvgPool2D struct {
	name       string
	c, h, w, k int
	out        *tensor.Tensor // previous train-mode output, self-recycled
}

// NewAvgPool2D constructs the layer for inputs of shape [B, c, h, w].
// h and w must be divisible by k.
func NewAvgPool2D(name string, c, h, w, k int) *AvgPool2D {
	if c <= 0 || h <= 0 || w <= 0 || k <= 0 {
		panic(fmt.Sprintf("nn: AvgPool2D %q invalid dims c=%d h=%d w=%d k=%d", name, c, h, w, k))
	}
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: AvgPool2D %q: %dx%d not divisible by %d", name, h, w, k))
	}
	return &AvgPool2D{name: name, c: c, h: h, w: w, k: k}
}

func (m *AvgPool2D) Name() string     { return m.name }
func (m *AvgPool2D) Params() []*Param { return nil }

// OutH returns the pooled height.
func (m *AvgPool2D) OutH() int { return m.h / m.k }

// OutW returns the pooled width.
func (m *AvgPool2D) OutW() int { return m.w / m.k }

func (m *AvgPool2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != m.c || x.Dim(2) != m.h || x.Dim(3) != m.w {
		panic(fmt.Sprintf("nn: AvgPool2D %q input %v, want [B %d %d %d]", m.name, x.Shape(), m.c, m.h, m.w))
	}
	batch := x.Dim(0)
	oh, ow := m.OutH(), m.OutW()
	if ctx.Train {
		ctx.Scratch.Put(m.out) // previous step's output is dead
		m.out = nil
	}
	out := ctx.Scratch.GetUninit(batch, m.c, oh, ow)
	if ctx.Train {
		m.out = out
	}
	m.poolInto(x, out)
	return out
}

// poolInto runs the averaging loop from x into out.
func (m *AvgPool2D) poolInto(x, out *tensor.Tensor) {
	oh, ow := m.OutH(), m.OutW()
	xd, od := x.Data(), out.Data()
	inv := 1 / float64(m.k*m.k)
	for bc := 0; bc < x.Dim(0)*m.c; bc++ {
		inBase := bc * m.h * m.w
		outBase := bc * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := 0.0
				for ky := 0; ky < m.k; ky++ {
					for kx := 0; kx < m.k; kx++ {
						sum += xd[inBase+(oy*m.k+ky)*m.w+ox*m.k+kx]
					}
				}
				od[outBase+oy*ow+ox] = sum * inv
			}
		}
	}
}

func (m *AvgPool2D) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	batch := grad.Dim(0)
	oh, ow := m.OutH(), m.OutW()
	out := ctx.Scratch.Get(batch, m.c, m.h, m.w)
	od, gd := out.Data(), grad.Data()
	inv := 1 / float64(m.k*m.k)
	for b := 0; b < batch; b++ {
		for ch := 0; ch < m.c; ch++ {
			inBase := (b*m.c + ch) * m.h * m.w
			outBase := (b*m.c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gd[outBase+oy*ow+ox] * inv
					for ky := 0; ky < m.k; ky++ {
						for kx := 0; kx < m.k; kx++ {
							od[inBase+(oy*m.k+ky)*m.w+ox*m.k+kx] += g
						}
					}
				}
			}
		}
	}
	return out
}

// ForwardIncremental recomputes pooling (zero MACs; per-channel, so
// reuse-safe). It bypasses Forward's Context plumbing so the anytime
// walk allocates nothing in steady state.
func (m *AvgPool2D) ForwardIncremental(x, _ *tensor.Tensor, _, _ int, pool *tensor.Pool) (*tensor.Tensor, int64) {
	out := pool.GetUninit(x.Dim(0), m.c, m.OutH(), m.OutW())
	m.poolInto(x, out)
	return out, 0
}

var _ Incremental = (*AvgPool2D)(nil)
