package nn

import (
	"fmt"
	"math"

	"steppingnet/internal/subnet"
	"steppingnet/internal/tensor"
)

// Dense is a fully-connected layer with subnet masking. The single
// weight tensor W (out×in) is shared by all subnets; which synapses
// are active in subnet s follows from the unit assignments, the mask
// rule and the prune mask. Its output is the pre-activation z = W_eff
// x + b restricted to active units (inactive units emit 0); pair it
// with a ReLU layer for the paper's topologies.
type Dense struct {
	name     string
	in, out  int
	w, b     *Param
	rule     MaskRule
	assignIn *subnet.Assignment
	inRepeat int // flattened feature maps: input i belongs to group i/inRepeat
	assign   *subnet.Assignment
	pruned   []bool // out×in, true = pruned (revivable)

	importance [][]float64 // [subnet-1][unit] accumulated |∂L_s/∂r|

	// training caches (valid after Forward with Train=true)
	x *tensor.Tensor // input batch
	z *tensor.Tensor // pre-activation batch
}

// DenseConfig assembles a Dense layer.
type DenseConfig struct {
	Name     string
	In, Out  int
	Rule     MaskRule
	AssignIn *subnet.Assignment // group assignment of the input elements
	InRepeat int                // elements per input group (≥1; H*W after Flatten)
	Assign   *subnet.Assignment // assignment of this layer's units
	Init     *tensor.RNG        // weight init source; nil leaves weights zero
}

// NewDense constructs the layer, validating that the assignments
// cover the declared sizes.
func NewDense(cfg DenseConfig) *Dense {
	if cfg.InRepeat <= 0 {
		cfg.InRepeat = 1
	}
	if cfg.AssignIn == nil || cfg.Assign == nil {
		panic(fmt.Sprintf("nn: Dense %q needs both assignments", cfg.Name))
	}
	if cfg.AssignIn.Units()*cfg.InRepeat != cfg.In {
		panic(fmt.Sprintf("nn: Dense %q: input assignment covers %d×%d elements, layer has %d",
			cfg.Name, cfg.AssignIn.Units(), cfg.InRepeat, cfg.In))
	}
	if cfg.Assign.Units() != cfg.Out {
		panic(fmt.Sprintf("nn: Dense %q: output assignment has %d units, layer has %d",
			cfg.Name, cfg.Assign.Units(), cfg.Out))
	}
	d := &Dense{
		name:     cfg.Name,
		in:       cfg.In,
		out:      cfg.Out,
		w:        NewParam(cfg.Name+".W", cfg.Out, cfg.In),
		b:        NewParam(cfg.Name+".b", cfg.Out),
		rule:     cfg.Rule,
		assignIn: cfg.AssignIn,
		inRepeat: cfg.InRepeat,
		assign:   cfg.Assign,
		pruned:   make([]bool, cfg.Out*cfg.In),
	}
	if cfg.Init != nil {
		d.w.Value.FillKaiming(cfg.Init, cfg.In)
	}
	return d
}

func (d *Dense) Name() string     { return d.name }
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// In and Out report the layer's fan-in and fan-out.
func (d *Dense) In() int  { return d.in }
func (d *Dense) Out() int { return d.out }

// Weights exposes the weight parameter (for serialization and tests).
func (d *Dense) Weights() *Param { return d.w }

// Bias exposes the bias parameter.
func (d *Dense) Bias() *Param { return d.b }

// Rule reports the layer's masking rule.
func (d *Dense) Rule() MaskRule { return d.rule }

func (d *Dense) OutAssignment() *subnet.Assignment { return d.assign }
func (d *Dense) InAssignment() (*subnet.Assignment, int) {
	return d.assignIn, d.inRepeat
}

// synapseActive applies the mask rule for subnet s.
func (d *Dense) synapseActive(o, i, s int) bool {
	outID := d.assign.ID(o)
	if outID > s {
		return false
	}
	inID := maskedEffectiveID(d.assignIn, d.inRepeat, i)
	switch d.rule {
	case RuleIncremental:
		if inID > outID {
			return false
		}
	case RuleShared:
		if inID > s {
			return false
		}
	}
	return !d.pruned[o*d.in+i]
}

// effectiveWeightsInto materializes W masked for subnet s into weff,
// which must be out×in and is fully overwritten (inactive entries
// become zero).
func (d *Dense) effectiveWeightsInto(weff *tensor.Tensor, s int) {
	wd, ed := d.w.Value.Data(), weff.Data()
	for o := 0; o < d.out; o++ {
		outID := d.assign.ID(o)
		row := o * d.in
		if outID > s {
			clear(ed[row : row+d.in])
			continue
		}
		for i := 0; i < d.in; i++ {
			v := wd[row+i]
			if d.pruned[row+i] {
				v = 0
			} else if inID := maskedEffectiveID(d.assignIn, d.inRepeat, i); (d.rule == RuleIncremental && inID > outID) ||
				(d.rule == RuleShared && inID > s) {
				v = 0
			}
			ed[row+i] = v
		}
	}
}

// Forward computes z = x·W_effᵀ + b for active units.
func (d *Dense) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.in {
		panic(fmt.Sprintf("nn: Dense %q forward input %v, want [B %d]", d.name, x.Shape(), d.in))
	}
	batch := x.Dim(0)
	if ctx.Train {
		// Recycle the previous step's pre-activation cache (d.x is a
		// reference to the upstream layer's buffer, not owned here).
		ctx.Scratch.Put(d.z)
		d.x, d.z = nil, nil
	}
	weff := ctx.Scratch.GetUninit(d.out, d.in)
	d.effectiveWeightsInto(weff, ctx.Subnet)
	z := ctx.Scratch.GetUninit(batch, d.out)
	tensor.GemmTransB(z.Data(), x.Data(), weff.Data(), batch, d.in, d.out, false)
	bd := d.b.Value.Data()
	zd := z.Data()
	for b := 0; b < batch; b++ {
		row := b * d.out
		for o := 0; o < d.out; o++ {
			if d.assign.ID(o) <= ctx.Subnet {
				zd[row+o] += bd[o]
			}
		}
	}
	ctx.Scratch.Put(weff)
	if ctx.Train {
		d.x, d.z = x, z
	}
	return z
}

// Backward propagates gradients, accumulates parameter gradients
// (masked identically to the forward pass, with optional β
// suppression) and, when requested, the per-unit importance signal
// ∂L_s/∂r_o = Σ_batch δ_o·(z_o − b_o) of Eq. 2.
func (d *Dense) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if d.x == nil {
		panic(fmt.Sprintf("nn: Dense %q Backward without cached Forward", d.name))
	}
	batch := grad.Dim(0)
	s := ctx.Subnet
	// Zero gradient rows of inactive units; downstream layers may
	// not know about assignments.
	gd := grad.Data()
	for b := 0; b < batch; b++ {
		row := b * d.out
		for o := 0; o < d.out; o++ {
			if d.assign.ID(o) > s {
				gd[row+o] = 0
			}
		}
	}

	if ctx.AccumulateImportance && d.importance != nil && s >= 1 && s <= len(d.importance) {
		d.accumulateImportance(grad, s)
	}

	weff := ctx.Scratch.GetUninit(d.out, d.in)
	d.effectiveWeightsInto(weff, s)
	gradX := ctx.Scratch.GetUninit(batch, d.in)
	tensor.Gemm(gradX.Data(), gd, weff.Data(), batch, d.out, d.in, false)

	// Parameter gradients: accumulate the unmasked dW = gradᵀ·x in one
	// matmul, then apply the forward's mask and the suppression factor
	// β^(s−assign(o)) for units of smaller subnets while adding into
	// the gradient accumulator.
	tmpW := ctx.Scratch.GetUninit(d.out, d.in)
	tensor.GemmTransA(tmpW.Data(), gd, d.x.Data(), batch, d.out, d.in, false)
	gw := d.w.Grad.Data()
	gb := d.b.Grad.Data()
	td := tmpW.Data()
	for o := 0; o < d.out; o++ {
		outID := d.assign.ID(o)
		if outID > s {
			continue
		}
		scale := 1.0
		if ctx.Beta > 0 && ctx.Beta < 1 && outID < s {
			scale = math.Pow(ctx.Beta, float64(s-outID))
		}
		row := o * d.in
		var gbo float64
		for b := 0; b < batch; b++ {
			gbo += gd[b*d.out+o]
		}
		for i := 0; i < d.in; i++ {
			if d.synapseActive(o, i, s) {
				gw[row+i] += scale * td[row+i]
			}
		}
		gb[o] += scale * gbo
	}
	ctx.Scratch.Put(weff)
	ctx.Scratch.Put(tmpW)
	return gradX
}

// accumulateImportance adds |Σ_b δ_o·(z_o − b_o)| into the subnet-s
// accumulator of every active unit.
func (d *Dense) accumulateImportance(grad *tensor.Tensor, s int) {
	batch := grad.Dim(0)
	gd, zd, bd := grad.Data(), d.z.Data(), d.b.Value.Data()
	acc := d.importance[s-1]
	for o := 0; o < d.out; o++ {
		if d.assign.ID(o) > s {
			continue
		}
		sum := 0.0
		for b := 0; b < batch; b++ {
			sum += gd[b*d.out+o] * (zd[b*d.out+o] - bd[o])
		}
		acc[o] += math.Abs(sum)
	}
}

// MACs counts active multiply-accumulates in subnet s: one per
// active, unpruned synapse.
func (d *Dense) MACs(s int) int64 {
	var n int64
	for o := 0; o < d.out; o++ {
		for i := 0; i < d.in; i++ {
			if d.synapseActive(o, i, s) {
				n++
			}
		}
	}
	return n
}

// UnitMACs counts the incoming MACs of unit o in subnet s.
func (d *Dense) UnitMACs(o, s int) int64 {
	var n int64
	for i := 0; i < d.in; i++ {
		if d.synapseActive(o, i, s) {
			n++
		}
	}
	return n
}

// PruneBelow prunes small-magnitude weights and reports how many
// weights it newly pruned. Already-pruned weights are unaffected.
func (d *Dense) PruneBelow(threshold float64) int {
	wd := d.w.Value.Data()
	n := 0
	for idx, v := range wd {
		if !d.pruned[idx] && math.Abs(v) < threshold {
			d.pruned[idx] = true
			n++
		}
	}
	return n
}

// ActiveAt reports whether the synapse from input element i to unit o
// is active in subnet s (structural rule ∩ prune mask).
func (d *Dense) ActiveAt(o, i, s int) bool { return d.synapseActive(o, i, s) }

// PruneAt marks the single synapse i→o as pruned.
func (d *Dense) PruneAt(o, i int) { d.pruned[o*d.in+i] = true }

// ReviveUnit clears the prune mask on the incoming row of unit o.
func (d *Dense) ReviveUnit(o int) {
	row := o * d.in
	for i := 0; i < d.in; i++ {
		d.pruned[row+i] = false
	}
}

// PrunedCount reports the current number of pruned weights.
func (d *Dense) PrunedCount() int {
	n := 0
	for _, p := range d.pruned {
		if p {
			n++
		}
	}
	return n
}

// PruneMask returns a copy of the prune mask (out×in, row-major).
func (d *Dense) PruneMask() []bool { return append([]bool(nil), d.pruned...) }

// SetPruneMask replaces the prune mask.
func (d *Dense) SetPruneMask(mask []bool) error {
	if len(mask) != len(d.pruned) {
		return fmt.Errorf("nn: Dense %q prune mask length %d, want %d", d.name, len(mask), len(d.pruned))
	}
	copy(d.pruned, mask)
	return nil
}

func (d *Dense) EnableImportance(n int) {
	d.importance = make([][]float64, n)
	for i := range d.importance {
		d.importance[i] = make([]float64, d.out)
	}
}

func (d *Dense) ResetImportance() {
	for _, row := range d.importance {
		for i := range row {
			row[i] = 0
		}
	}
}

func (d *Dense) Importance() [][]float64 { return d.importance }

// Edge exposes the layer's connectivity (prune ∩ structural mask at
// full width) for subnet.Validate. Only meaningful for
// RuleIncremental layers; RuleShared layers intentionally violate the
// property.
func (d *Dense) Edge() *subnet.Edge {
	expanded := d.assignIn
	if d.inRepeat > 1 {
		expanded = d.assignIn.Expand(d.inRepeat)
	}
	mask := make([]bool, d.out*d.in)
	for o := 0; o < d.out; o++ {
		outID := d.assign.ID(o)
		for i := 0; i < d.in; i++ {
			inID := maskedEffectiveID(d.assignIn, d.inRepeat, i)
			mask[o*d.in+i] = !d.pruned[o*d.in+i] && (d.rule != RuleIncremental || inID <= outID)
		}
	}
	return &subnet.Edge{Name: d.name, In: expanded, Out: d.assign, Mask: mask}
}

// ForwardIncremental implements anytime inference (see Incremental).
// Units reusable from the cache are copied; the remaining active
// units' masked weight rows are gathered into a compact matrix and
// computed in a single matmul. It touches no layer state, so it is
// safe to call concurrently on disjoint batch shards (each caller
// passing its own pool).
func (d *Dense) ForwardIncremental(x, cached *tensor.Tensor, sPrev, s int, pool *tensor.Pool) (*tensor.Tensor, int64) {
	batch := x.Dim(0)
	out := pool.Get(batch, d.out)
	od := out.Data()
	wd := d.w.Value.Data()
	bd := d.b.Value.Data()

	// A unit is reused when the cache holds its sPrev value (the
	// incremental property guarantees its active inputs are unchanged
	// between sPrev and s) and computed fresh when newly active. The
	// fresh set is re-derived from the assignment wherever it is
	// needed instead of being materialized as an index slice, so the
	// steady-state anytime walk stays allocation-free.
	fresh := func(o int) bool {
		outID := d.assign.ID(o)
		return outID <= s && (outID > sPrev || cached == nil)
	}
	nNew := 0
	for o := 0; o < d.out; o++ {
		if outID := d.assign.ID(o); outID > s {
			continue
		} else if fresh(o) {
			nNew++
		} else {
			cd := cached.Data()
			for b := 0; b < batch; b++ {
				od[b*d.out+o] = cd[b*d.out+o]
			}
		}
	}

	var macs int64
	if nNew > 0 {
		weffNew := pool.Get(nNew, d.in)
		ed := weffNew.Data()
		j := 0
		for o := 0; o < d.out; o++ {
			if !fresh(o) {
				continue
			}
			row := o * d.in
			erow := ed[j*d.in : (j+1)*d.in]
			for i := 0; i < d.in; i++ {
				if d.synapseActive(o, i, s) {
					erow[i] = wd[row+i]
					macs++ // per-image MAC count
				}
			}
			j++
		}
		zNew := pool.GetUninit(batch, nNew)
		tensor.GemmTransB(zNew.Data(), x.Data(), ed, batch, d.in, nNew, false)
		zd := zNew.Data()
		j = 0
		for o := 0; o < d.out; o++ {
			if !fresh(o) {
				continue
			}
			for b := 0; b < batch; b++ {
				od[b*d.out+o] = zd[b*nNew+j] + bd[o]
			}
			j++
		}
		pool.Put(weffNew)
		pool.Put(zNew)
	}
	return out, macs
}

var (
	_ Masked      = (*Dense)(nil)
	_ Incremental = (*Dense)(nil)
)
