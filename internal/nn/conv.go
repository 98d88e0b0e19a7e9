package nn

import (
	"fmt"
	"math"

	"steppingnet/internal/subnet"
	"steppingnet/internal/tensor"
)

// Conv2D is a masked 2-D convolution. Units are filters (output
// channels), exactly as the paper treats CNNs: "r is assigned to the
// jth filter of the ith subnet" (§III-A2). Masking is at channel
// granularity for the structural rule and at weight granularity for
// unstructured pruning. Input and output are rank-4 [B, C, H, W].
type Conv2D struct {
	name     string
	geom     tensor.ConvGeom
	w, b     *Param // w: outC × (inC·K·K)
	rule     MaskRule
	assignIn *subnet.Assignment // per input channel
	assign   *subnet.Assignment // per filter
	pruned   []bool             // outC × inC·K·K

	importance [][]float64

	// training caches
	x    *tensor.Tensor   // input batch
	z    *tensor.Tensor   // pre-activation batch [B, outC, outH, outW]
	cols []*tensor.Tensor // per-image im2col matrices (R×C)
}

// Conv2DConfig assembles a Conv2D layer.
type Conv2DConfig struct {
	Name     string
	Geom     tensor.ConvGeom
	Rule     MaskRule
	AssignIn *subnet.Assignment
	Assign   *subnet.Assignment
	Init     *tensor.RNG
}

// NewConv2D constructs the layer and validates geometry and
// assignment sizes.
func NewConv2D(cfg Conv2DConfig) *Conv2D {
	if err := cfg.Geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: Conv2D %q: %v", cfg.Name, err))
	}
	if cfg.AssignIn == nil || cfg.Assign == nil {
		panic(fmt.Sprintf("nn: Conv2D %q needs both assignments", cfg.Name))
	}
	if cfg.AssignIn.Units() != cfg.Geom.InC {
		panic(fmt.Sprintf("nn: Conv2D %q: input assignment has %d channels, geometry %d",
			cfg.Name, cfg.AssignIn.Units(), cfg.Geom.InC))
	}
	if cfg.Assign.Units() != cfg.Geom.OutC {
		panic(fmt.Sprintf("nn: Conv2D %q: output assignment has %d filters, geometry %d",
			cfg.Name, cfg.Assign.Units(), cfg.Geom.OutC))
	}
	cc := cfg.Geom.ColCols()
	c := &Conv2D{
		name:     cfg.Name,
		geom:     cfg.Geom,
		w:        NewParam(cfg.Name+".W", cfg.Geom.OutC, cc),
		b:        NewParam(cfg.Name+".b", cfg.Geom.OutC),
		rule:     cfg.Rule,
		assignIn: cfg.AssignIn,
		assign:   cfg.Assign,
		pruned:   make([]bool, cfg.Geom.OutC*cc),
	}
	if cfg.Init != nil {
		c.w.Value.FillKaiming(cfg.Init, cc)
	}
	return c
}

func (c *Conv2D) Name() string     { return c.name }
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Geom returns the convolution geometry.
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// Weights exposes the filter parameter.
func (c *Conv2D) Weights() *Param { return c.w }

// Bias exposes the bias parameter.
func (c *Conv2D) Bias() *Param { return c.b }

// Rule reports the layer's masking rule.
func (c *Conv2D) Rule() MaskRule { return c.rule }

func (c *Conv2D) OutAssignment() *subnet.Assignment { return c.assign }
func (c *Conv2D) InAssignment() (*subnet.Assignment, int) {
	return c.assignIn, 1
}

// weightChannel maps a flat weight column index to its input channel.
func (c *Conv2D) weightChannel(col int) int { return col / (c.geom.K * c.geom.K) }

// weightActive applies the mask rule for filter o, weight column col,
// subnet s.
func (c *Conv2D) weightActive(o, col, s int) bool {
	outID := c.assign.ID(o)
	if outID > s {
		return false
	}
	inID := c.assignIn.ID(c.weightChannel(col))
	switch c.rule {
	case RuleIncremental:
		if inID > outID {
			return false
		}
	case RuleShared:
		if inID > s {
			return false
		}
	}
	return !c.pruned[o*c.geom.ColCols()+col]
}

// effectiveWeightsInto materializes the masked filter matrix for
// subnet s into weff, which must be outC×ColCols and is fully
// overwritten (inactive entries become zero). The structural rule is
// resolved once per input channel, not per weight.
func (c *Conv2D) effectiveWeightsInto(weff *tensor.Tensor, s int) {
	g := c.geom
	cc, kk := g.ColCols(), g.K*g.K
	wd, ed := c.w.Value.Data(), weff.Data()
	for o := 0; o < g.OutC; o++ {
		row := o * cc
		outID := c.assign.ID(o)
		if outID > s {
			clear(ed[row : row+cc])
			continue
		}
		erow := ed[row : row+cc]
		wrow := wd[row : row+cc]
		prow := c.pruned[row : row+cc]
		for ch := 0; ch < g.InC; ch++ {
			base := ch * kk
			if !c.channelActive(ch, outID, s) {
				clear(erow[base : base+kk])
				continue
			}
			for k := base; k < base+kk; k++ {
				if prow[k] {
					erow[k] = 0
				} else {
					erow[k] = wrow[k]
				}
			}
		}
	}
}

// channelActive resolves the structural mask rule for one input
// channel feeding a filter with the given assignment.
func (c *Conv2D) channelActive(ch, outID, s int) bool {
	inID := c.assignIn.ID(ch)
	switch c.rule {
	case RuleIncremental:
		return inID <= outID
	case RuleShared:
		return inID <= s
	}
	return true
}

// countFilters reports how many filters have lo < assignment ≤ s —
// the column count of the matrix gatherFiltersT(lo, s) fills.
func (c *Conv2D) countFilters(lo, s int) int {
	n := 0
	for o := 0; o < c.geom.OutC; o++ {
		if id := c.assign.ID(o); id > lo && id <= s {
			n++
		}
	}
	return n
}

// gatherFiltersT writes the masked weight rows of the filters with
// lo < assignment ≤ s (in ascending filter order) into wt in
// transposed ColCols×countFilters(lo, s) layout — the right operand
// shape for the ikj Gemm kernel — and reports the number of active
// weights gathered. wt is fully overwritten.
func (c *Conv2D) gatherFiltersT(wt *tensor.Tensor, lo, s int) int64 {
	g := c.geom
	cc, kk := g.ColCols(), g.K*g.K
	n := wt.Dim(1)
	wd, ed := c.w.Value.Data(), wt.Data()
	var active int64
	j := 0
	for o := 0; o < g.OutC; o++ {
		outID := c.assign.ID(o)
		if outID <= lo || outID > s {
			continue
		}
		wrow := wd[o*cc : (o+1)*cc]
		prow := c.pruned[o*cc : (o+1)*cc]
		for ch := 0; ch < g.InC; ch++ {
			base := ch * kk
			if !c.channelActive(ch, outID, s) {
				for k := base; k < base+kk; k++ {
					ed[k*n+j] = 0
				}
				continue
			}
			for k := base; k < base+kk; k++ {
				if prow[k] {
					ed[k*n+j] = 0
				} else {
					ed[k*n+j] = wrow[k]
					active++
				}
			}
		}
		j++
	}
	return active
}

// Forward computes the masked convolution as an im2col expansion
// followed by one weff·colᵀ matmul per image; rows of weff belonging
// to inactive filters are zero and skipped inside the kernel.
func (c *Conv2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	g := c.geom
	if x.Rank() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		panic(fmt.Sprintf("nn: Conv2D %q forward input %v, want [B %d %d %d]",
			c.name, x.Shape(), g.InC, g.InH, g.InW))
	}
	batch := x.Dim(0)
	r, cc := g.ColRows(), g.ColCols()
	outH, outW := g.OutH(), g.OutW()
	if ctx.Train {
		// The previous step's caches are dead once a new training
		// forward begins; recycle them before drawing new buffers.
		ctx.Scratch.Put(c.z)
		for _, col := range c.cols {
			ctx.Scratch.Put(col)
		}
		c.x, c.z, c.cols = nil, nil, c.cols[:0]
	}
	// Gather the active filters' masked weights into a compact
	// transposed matrix: the per-image product becomes the fast ikj
	// kernel, and inactive filters cost nothing at small subnets.
	nAct := c.countFilters(0, ctx.Subnet)
	wt := ctx.Scratch.GetUninit(cc, nAct)
	c.gatherFiltersT(wt, 0, ctx.Subnet)
	z := ctx.Scratch.GetUninit(batch, g.OutC, outH, outW)
	zd := z.Data()
	bd := c.b.Value.Data()
	imgLen := g.InC * g.InH * g.InW

	var colBuf *tensor.Tensor
	if !ctx.Train {
		colBuf = ctx.Scratch.GetUninit(r, cc)
	}
	zT := ctx.Scratch.GetUninit(r, nAct)
	ztd := zT.Data()
	for b := 0; b < batch; b++ {
		col := colBuf
		if ctx.Train {
			col = ctx.Scratch.GetUninit(r, cc)
			c.cols = append(c.cols, col)
		}
		if ctx.Train || nAct > 0 {
			// The gather fans out over the tensor worker arena when the
			// matrix is big enough — the batch-1 eval forward has no
			// other axis to parallelize.
			tensor.ParallelIm2Col(g, x.Data()[b*imgLen:(b+1)*imgLen], col.Data())
		}
		// zT (r×nAct) = col (r×cc) · wt (cc×nAct), then scatter back
		// channel-major with bias; inactive filter rows stay zero.
		if nAct > 0 {
			tensor.Gemm(ztd, col.Data(), wt.Data(), r, cc, nAct, false)
		}
		zimg := zd[b*g.OutC*r : (b+1)*g.OutC*r]
		j := 0
		for o := 0; o < g.OutC; o++ {
			zrow := zimg[o*r : (o+1)*r]
			if c.assign.ID(o) <= ctx.Subnet {
				bias := bd[o]
				for p := range zrow {
					zrow[p] = ztd[p*nAct+j] + bias
				}
				j++
			} else {
				clear(zrow)
			}
		}
	}
	if ctx.Train {
		c.x, c.z = x, z
	} else {
		ctx.Scratch.Put(colBuf)
	}
	ctx.Scratch.Put(zT)
	ctx.Scratch.Put(wt)
	return z
}

// Backward propagates gradients through the convolution; see Dense
// for the masking, suppression and importance conventions.
func (c *Conv2D) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if c.x == nil {
		panic(fmt.Sprintf("nn: Conv2D %q Backward without cached Forward", c.name))
	}
	g := c.geom
	batch := grad.Dim(0)
	s := ctx.Subnet
	r, cc := g.ColRows(), g.ColCols()
	gd := grad.Data()

	// Zero gradients of inactive filters.
	for b := 0; b < batch; b++ {
		for o := 0; o < g.OutC; o++ {
			if c.assign.ID(o) > s {
				base := b*g.OutC*r + o*r
				for p := 0; p < r; p++ {
					gd[base+p] = 0
				}
			}
		}
	}

	if ctx.AccumulateImportance && c.importance != nil && s >= 1 && s <= len(c.importance) {
		c.accumulateImportance(grad, s)
	}

	weff := ctx.Scratch.GetUninit(g.OutC, cc)
	c.effectiveWeightsInto(weff, s)
	imgLen := g.InC * g.InH * g.InW
	gradX := ctx.Scratch.Get(batch, g.InC, g.InH, g.InW)
	tmpW := ctx.Scratch.Get(g.OutC, cc) // unscaled, unmasked dW accumulator
	gb := c.b.Grad.Data()
	gradColBuf := ctx.Scratch.GetUninit(r, cc)

	for b := 0; b < batch; b++ {
		col := c.cols[b]
		dimg := gd[b*g.OutC*r : (b+1)*g.OutC*r]
		// dW += δ_img (outC×R) × col (R×C), accumulated over batch;
		// inactive filters have zeroed δ rows, which the kernel skips.
		tensor.Gemm(tmpW.Data(), dimg, col.Data(), g.OutC, r, cc, true)
		for o := 0; o < g.OutC; o++ {
			if c.assign.ID(o) > s {
				continue
			}
			var gbo float64
			for _, delta := range dimg[o*r : (o+1)*r] {
				gbo += delta
			}
			gb[o] += c.suppression(ctx, o, s) * gbo
		}
		// dCol = δ_imgᵀ (R×outC) × W_eff (outC×C), then Col2Im.
		tensor.GemmTransA(gradColBuf.Data(), dimg, weff.Data(), g.OutC, r, cc, false)
		g.Col2Im(gradColBuf.Data(), gradX.Data()[b*imgLen:(b+1)*imgLen])
	}

	// Apply mask and suppression to the accumulated weight gradient.
	gw := c.w.Grad.Data()
	td := tmpW.Data()
	for o := 0; o < g.OutC; o++ {
		if c.assign.ID(o) > s {
			continue
		}
		scale := c.suppression(ctx, o, s)
		row := o * cc
		for col := 0; col < cc; col++ {
			if c.weightActive(o, col, s) {
				gw[row+col] += scale * td[row+col]
			}
		}
	}
	ctx.Scratch.Put(weff)
	ctx.Scratch.Put(tmpW)
	ctx.Scratch.Put(gradColBuf)
	return gradX
}

func (c *Conv2D) suppression(ctx *Context, o, s int) float64 {
	outID := c.assign.ID(o)
	if ctx.Beta > 0 && ctx.Beta < 1 && outID < s {
		return math.Pow(ctx.Beta, float64(s-outID))
	}
	return 1
}

func (c *Conv2D) accumulateImportance(grad *tensor.Tensor, s int) {
	g := c.geom
	batch := grad.Dim(0)
	r := g.ColRows()
	gd, zd, bd := grad.Data(), c.z.Data(), c.b.Value.Data()
	acc := c.importance[s-1]
	for o := 0; o < g.OutC; o++ {
		if c.assign.ID(o) > s {
			continue
		}
		sum := 0.0
		for b := 0; b < batch; b++ {
			base := b*g.OutC*r + o*r
			for p := 0; p < r; p++ {
				sum += gd[base+p] * (zd[base+p] - bd[o])
			}
		}
		acc[o] += math.Abs(sum)
	}
}

// MACs counts active multiply-accumulates for subnet s: each active
// weight fires once per output position.
func (c *Conv2D) MACs(s int) int64 {
	var active int64
	cc := c.geom.ColCols()
	for o := 0; o < c.geom.OutC; o++ {
		for col := 0; col < cc; col++ {
			if c.weightActive(o, col, s) {
				active++
			}
		}
	}
	return active * int64(c.geom.ColRows())
}

// UnitMACs counts the incoming MACs of filter o in subnet s.
func (c *Conv2D) UnitMACs(o, s int) int64 {
	var active int64
	cc := c.geom.ColCols()
	for col := 0; col < cc; col++ {
		if c.weightActive(o, col, s) {
			active++
		}
	}
	return active * int64(c.geom.ColRows())
}

// PruneBelow prunes small-magnitude filter weights.
func (c *Conv2D) PruneBelow(threshold float64) int {
	wd := c.w.Value.Data()
	n := 0
	for idx, v := range wd {
		if !c.pruned[idx] && math.Abs(v) < threshold {
			c.pruned[idx] = true
			n++
		}
	}
	return n
}

// ActiveAt reports whether weight column col of filter o is active in
// subnet s (structural rule ∩ prune mask).
func (c *Conv2D) ActiveAt(o, col, s int) bool { return c.weightActive(o, col, s) }

// PruneAt marks one filter weight as pruned.
func (c *Conv2D) PruneAt(o, col int) { c.pruned[o*c.geom.ColCols()+col] = true }

// ReviveUnit clears the prune mask on filter o.
func (c *Conv2D) ReviveUnit(o int) {
	cc := c.geom.ColCols()
	for col := 0; col < cc; col++ {
		c.pruned[o*cc+col] = false
	}
}

// PrunedCount reports the current number of pruned weights.
func (c *Conv2D) PrunedCount() int {
	n := 0
	for _, p := range c.pruned {
		if p {
			n++
		}
	}
	return n
}

// PruneMask returns a copy of the prune mask (outC×(inC·K·K)).
func (c *Conv2D) PruneMask() []bool { return append([]bool(nil), c.pruned...) }

// SetPruneMask replaces the prune mask.
func (c *Conv2D) SetPruneMask(mask []bool) error {
	if len(mask) != len(c.pruned) {
		return fmt.Errorf("nn: Conv2D %q prune mask length %d, want %d", c.name, len(mask), len(c.pruned))
	}
	copy(c.pruned, mask)
	return nil
}

func (c *Conv2D) EnableImportance(n int) {
	c.importance = make([][]float64, n)
	for i := range c.importance {
		c.importance[i] = make([]float64, c.geom.OutC)
	}
}

func (c *Conv2D) ResetImportance() {
	for _, row := range c.importance {
		for i := range row {
			row[i] = 0
		}
	}
}

func (c *Conv2D) Importance() [][]float64 { return c.importance }

// Edge exposes channel-level connectivity for validation: input
// channel i feeds filter o iff at least one of the K·K weights
// between them is unpruned.
func (c *Conv2D) Edge() *subnet.Edge {
	kk := c.geom.K * c.geom.K
	cc := c.geom.ColCols()
	mask := make([]bool, c.geom.OutC*c.geom.InC)
	for o := 0; o < c.geom.OutC; o++ {
		outID := c.assign.ID(o)
		for ch := 0; ch < c.geom.InC; ch++ {
			if c.rule == RuleIncremental && c.assignIn.ID(ch) > outID {
				continue
			}
			any := false
			for k := 0; k < kk; k++ {
				if !c.pruned[o*cc+ch*kk+k] {
					any = true
					break
				}
			}
			mask[o*c.geom.InC+ch] = any
		}
	}
	return &subnet.Edge{Name: c.name, In: c.assignIn, Out: c.assign, Mask: mask}
}

// ForwardIncremental implements anytime inference for convolutions:
// filters with assignment ≤ sPrev are copied from the cached output,
// only newly activated filters are convolved. The new filters' masked
// rows are gathered into a compact matrix so the per-image work is
// one nNew×r matmul instead of a full-width sweep. It touches no
// layer state, so it is safe to call concurrently on disjoint batch
// shards (each caller passing its own pool).
func (c *Conv2D) ForwardIncremental(x, cached *tensor.Tensor, sPrev, s int, pool *tensor.Pool) (*tensor.Tensor, int64) {
	g := c.geom
	batch := x.Dim(0)
	r, cc := g.ColRows(), g.ColCols()
	out := pool.Get(batch, g.OutC, g.OutH(), g.OutW())
	od := out.Data()
	imgLen := g.InC * g.InH * g.InW
	bd := c.b.Value.Data()

	// Filters to compute fresh: active in s, not reusable from the
	// cache, i.e. lo < assignment ≤ s.
	lo := 0
	if cached != nil {
		lo = sPrev
	}

	// Gather the new filters' masked weights transposed (the fast
	// kernel's layout); per-image MACs are identical across the
	// batch, so count while gathering. With no new filters (re-step or
	// step-down) no buffers are drawn at all — a pool Get of a
	// zero-width tensor would allocate a header the pool can never
	// recycle, breaking the walk's zero-alloc steady state.
	nNew := c.countFilters(lo, s)
	var macs int64
	var wt, colBuf, zNew *tensor.Tensor
	if nNew > 0 {
		wt = pool.GetUninit(cc, nNew)
		macs = c.gatherFiltersT(wt, lo, s) * int64(r)
		colBuf = pool.GetUninit(r, cc)
		zNew = pool.GetUninit(r, nNew)
	}
	for b := 0; b < batch; b++ {
		base := b * g.OutC * r
		if nNew > 0 {
			tensor.ParallelIm2Col(g, x.Data()[b*imgLen:(b+1)*imgLen], colBuf.Data())
			tensor.Gemm(zNew.Data(), colBuf.Data(), wt.Data(), r, cc, nNew, false)
			znd := zNew.Data()
			j := 0
			for o := 0; o < g.OutC; o++ {
				if id := c.assign.ID(o); id <= lo || id > s {
					continue
				}
				orow := od[base+o*r : base+(o+1)*r]
				bias := bd[o]
				for p := range orow {
					orow[p] = znd[p*nNew+j] + bias
				}
				j++
			}
		}
		if cached != nil {
			cd := cached.Data()
			for o := 0; o < g.OutC; o++ {
				if outID := c.assign.ID(o); outID <= sPrev && outID <= s {
					copy(od[base+o*r:base+(o+1)*r], cd[base+o*r:base+(o+1)*r])
				}
			}
		}
	}
	pool.Put(wt)
	pool.Put(colBuf)
	pool.Put(zNew)
	return out, macs
}

var (
	_ Masked      = (*Conv2D)(nil)
	_ Incremental = (*Conv2D)(nil)
)
