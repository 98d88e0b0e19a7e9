package infer

import (
	"fmt"
	"math"
	"strings"

	"steppingnet/internal/nn"
	"steppingnet/internal/subnet"
	"steppingnet/internal/tensor"
)

// This file is the step plan: the ladder compiled once, when the
// engine is built, into stages over engine-owned buffers, so that a
// rung step does the rung's own work and nothing else.
//
// A native stage (conv, dense, head) keeps two things between rungs:
// its output, one plane or element per unit in the layer's own unit
// order, and a GATHER of its input in the order the weight panels
// multiply over: for a dense layer the input vector itself, for a
// convolution the channel-major patch matrix colT (K·K rows of r
// output positions per channel; row (c,ky,kx) is plane c shifted by
// the tap, zero where the tap leaves the image) — stored, at stride 1,
// as K horizontally shifted, vertically zero-padded copies of the
// plane, (InH+2·Pad)×OutW each, of which row (c,ky,kx) is the WINDOW
// at ky·OutW of copy (c,kx); at any other stride as the K·K rows
// themselves. rowOff lists where every row starts and the rung kernel
// reads through it, so one walker serves both layouts. Groups are
// sorted by the rung of the input unit they come from, so the inputs a
// rung-q unit may read — those of rung ≤ q — are a PREFIX, and a step
// extends the gather by the newly activated input units only.
//
// For every rung the stage holds a pre-packed weight panel: the rows
// of the units that rung adds, columns in gather order, mask, prune
// and bias resolved, with its exact MAC count. Rung q of a conv is
// then one tensor.RungGemm, act(panel(nNew×K_q) · colT(K_q×r) + bias)
// — the vector dimension is the r output positions, results land one
// finished plane per unit — and a max-pool of the new planes only.
//
// Bitwise contracts. A unit is only ever computed by its own rung's
// panel over its own rung's K-prefix, one image at a time, so its
// value is the same chain of floating-point operations on every path:
// cold, direct Step(n), resumed, batched, sharded. Values a stage has
// not computed at the current rung are never read (they lie beyond
// every prefix in use) and are kept at zero, so each buffer always
// equals the layer stack's output at the current subnet.

// stageKind selects a stage's step routine.
type stageKind uint8

const (
	// stageGeneric wraps any layer the plan has no routine for
	// (RuleShared backbones, BatchNorm, average pooling, stray
	// activations): it runs the layer the way the per-layer reference
	// walk does and copies the result into the stage buffer.
	stageGeneric stageKind = iota
	stageConv              // RuleIncremental conv [+ReLU] [+max-pool]
	stageDense             // RuleIncremental dense [+ReLU]
	stageHead              // RuleShared dense [+ReLU]: recomputed whole at every rung
)

var kindNames = [...]string{"generic", "conv", "dense", "head"}

// panel is the work one rung adds to one native stage.
type panel struct {
	units []int     // output units computed, ascending
	w     []float64 // len(units)×k row-major, columns in gather order
	bias  []float64
	k     int // gather prefix the rows multiply over
}

// stage is one step of the plan with the buffers it owns.
type stage struct {
	kind   stageKind
	name   string
	layer  nn.Layer // generic stages only
	shared bool     // generic: a RuleShared masked layer, recomputed at every rung
	// stepMACs[q] is the exact per-image MAC count of a step q-1→q in
	// this stage (index 0 unused); zero for parameter-free layers.
	stepMACs []int64

	// Native stages. The input units ("groups": channels, or runs of
	// per flattened elements) appear in the gather in order[]; ends[q]
	// counts the groups of rung ≤ q. A conv's gather row p — panel
	// column p — starts at rowOff[p].
	geom          tensor.ConvGeom
	relu          bool
	poolK         int
	per           int // gather rows per group: K·K taps, or elements per input unit
	r             int // gather row length: output positions (1 for dense)
	units         int // output units
	order, rowOff []int
	ends          []int
	panels        []panel // index = rung; 0 unused
	volatileIn    bool    // the producer recomputes: its output may change at every rung

	gatherLen int // gather floats per image
	plane     int // output floats per unit

	// Bound to an input shape by Engine.bind.
	inLen, outLen int
	full          *tensor.Tensor // [capacity, outShape...]
	out           tensor.Tensor  // the first batch rows of full
	gather        []float64
}

// compile turns the network into stages and reports the ladder depth.
// Weights, masks and assignments are read here and never again: the
// engine serves the network as it is when NewEngine is called.
func compile(net *nn.Network) ([]stage, int) {
	layers := net.Layers()
	n := 1
	for _, m := range net.MaskedLayers() {
		n = max(n, m.OutAssignment().Subnets())
	}
	var stages []stage
	for i := 0; i < len(layers); i++ {
		st := stage{layer: layers[i], stepMACs: make([]int64, n+1), poolK: 1}
		names := []string{layers[i].Name()}
		fuse := func(l nn.Layer) {
			names = append(names, l.Name())
			i++
		}
		next := func() nn.Layer {
			if i+1 < len(layers) {
				return layers[i+1]
			}
			return nil
		}
		switch l := layers[i].(type) {
		case *nn.Flatten:
			if _, ok := next().(*nn.Dense); ok {
				continue // a dense stage reads its input flat anyway
			}
		case *nn.Conv2D:
			if l.Rule() != nn.RuleIncremental {
				break
			}
			g := l.Geom()
			st.kind, st.geom, st.r, st.plane = stageConv, g, g.ColRows(), g.ColRows()
			if relu, ok := next().(*nn.ReLU); ok {
				st.relu = true
				fuse(relu)
			}
			if mp, ok := next().(*nn.MaxPool2D); ok && st.relu { // what pool relies on
				if c, h, w, k := mp.Geom(); c == g.OutC && h == g.OutH() && w == g.OutW() && k == 2 {
					st.poolK, st.plane = k, (h/k)*(w/k)
					fuse(mp)
				}
			}
			in, _ := l.InAssignment()
			st.pack(l.Weights().Value.Data(), l.Bias().Value.Data(), l.PruneMask(), in, l.OutAssignment(), g.K*g.K, n)
		case *nn.Dense:
			st.kind, st.r, st.plane = stageDense, 1, 1
			if l.Rule() == nn.RuleShared {
				st.kind = stageHead
			}
			if relu, ok := next().(*nn.ReLU); ok {
				st.relu = true
				fuse(relu)
			}
			in, repeat := l.InAssignment()
			st.pack(l.Weights().Value.Data(), l.Bias().Value.Data(), l.PruneMask(), in, l.OutAssignment(), repeat, n)
		}
		if st.kind == stageGeneric {
			if m, ok := st.layer.(nn.Masked); ok && m.Rule() == nn.RuleShared {
				st.shared = true
				for q := 1; q <= n; q++ {
					st.stepMACs[q] = m.MACs(q)
				}
			}
		} else {
			st.layer = nil
		}
		st.name = strings.Join(names, "+")
		if len(stages) > 0 {
			prev := stages[len(stages)-1].kind
			st.volatileIn = prev == stageGeneric || prev == stageHead
		}
		stages = append(stages, st)
	}
	return stages, n
}

// pack lays out the gather order and packs one weight panel per rung
// from the layer's out×(groups·per) weight matrix. A synapse from
// group g to unit o is in the rung-q panel iff o belongs to the panel
// (rung exactly q; for a head, rung ≤ q), g has rung ≤ q and the
// weight is not pruned — RuleIncremental and RuleShared coincide on
// the units a panel holds.
func (st *stage) pack(w, bias []float64, pruned []bool, in, out *subnet.Assignment, per, n int) {
	groups, cols := in.Units(), in.Units()*per
	st.per, st.units = per, out.Units()
	st.ends = make([]int, n+1)
	st.panels = make([]panel, n+1)
	// A group is per rows of r floats, tap (ky,kx) at ky·kyStep+kx·kxStep;
	// a stride-1 conv's rows are windows, OutW apart, of K shifted planes.
	geo, kxStep, kyStep, groupLen := st.geom, st.r, st.geom.K*st.r, per*st.r
	if st.kind == stageConv && geo.Stride == 1 {
		kxStep, kyStep = (geo.InH+2*geo.Pad)*geo.OutW(), geo.OutW()
		groupLen = geo.K * kxStep
	}
	pos := make([]int, groups) // a group's first gather row
	for q := 1; q <= n; q++ {
		for g := 0; g < groups; g++ {
			if in.ID(g) != q {
				continue
			}
			pos[g] = len(st.order) * per
			for t := 0; t < per && st.kind == stageConv; t++ {
				st.rowOff = append(st.rowOff, len(st.order)*groupLen+t/geo.K*kyStep+t%geo.K*kxStep)
			}
			st.order = append(st.order, g)
		}
		st.ends[q] = len(st.order)
		st.panels[q].k = len(st.order) * per
	}
	st.gatherLen = len(st.order) * groupLen
	for q := 1; q <= n; q++ {
		p := &st.panels[q]
		var active int64
		for o := 0; o < st.units; o++ {
			if id := out.ID(o); id != q && (st.kind != stageHead || id > q) {
				continue
			}
			p.units = append(p.units, o)
			p.bias = append(p.bias, bias[o])
			row := len(p.w)
			p.w = append(p.w, make([]float64, p.k)...)
			for g := 0; g < groups; g++ {
				if in.ID(g) > q {
					continue
				}
				for t := 0; t < per; t++ {
					if idx := o*cols + g*per + t; !pruned[idx] {
						p.w[row+pos[g]+t] = w[idx]
						active++
					}
				}
			}
		}
		st.stepMACs[q] = active * int64(st.r)
	}
}

// zLen is the scratch a shard needs to hold one panel's product.
func (st *stage) zLen() int {
	z := 0
	for _, p := range st.panels {
		z = max(z, len(p.units)*st.r)
	}
	return z
}

// shardJob tells a worker which rows to step and between which rungs.
// Jobs travel by value, so dispatch is allocation-free.
type shardJob struct {
	wi, b0, b1 int
	sPrev, s   int  // the step computes the rungs in (sPrev, s]
	top        int  // the rung the buffers held before the step
	gathered   int  // the rung the gathers are filled to (0 after Reset or import)
	poll       bool // a core per shard: poll for the next job before parking
}

// stepNative advances rows [b0,b1) of a native stage: extend each
// image's gather by the input units the step activates, run the
// panels of the rungs it adds, and on a step down zero what falls out
// of the subnet. in is the producer's buffer.
func (st *stage) stepNative(z, in []float64, j shardJob) int64 {
	n := len(st.panels) - 1
	s, sPrev, top := min(j.s, n), min(j.sPrev, n), min(j.top, n)
	g0 := min(j.gathered, sPrev)
	if st.volatileIn {
		g0 = 0
	}
	lo := sPrev + 1
	if st.kind == stageHead {
		lo = s
	}
	od := st.out.Data()
	for b := j.b0; b < j.b1; b++ {
		x := in[b*st.inLen : (b+1)*st.inLen]
		gat := st.gather[b*st.gatherLen : (b+1)*st.gatherLen]
		for g := st.ends[g0]; g < st.ends[s]; g++ {
			if st.kind == stageConv {
				st.fillGroup(gat, x, st.order[g], st.rowOff[g*st.per:])
			} else {
				copy(gat[g*st.per:(g+1)*st.per], x[st.order[g]*st.per:])
			}
		}
		out := od[b*st.outLen : (b+1)*st.outLen]
		if st.kind == stageHead {
			clear(out)
		}
		for q := lo; q <= s; q++ {
			st.runPanel(&st.panels[q], gat, out, z)
		}
		if st.kind != stageHead {
			for q := s + 1; q <= top; q++ {
				for _, o := range st.panels[q].units {
					clear(out[o*st.plane : (o+1)*st.plane])
				}
			}
		}
	}
	return st.macs(j)
}

// macs is the plan's exact per-image MAC count of the job's step here:
// the rungs added, or the one landed on if the stage recomputes whole.
func (st *stage) macs(j shardJob) (macs int64) {
	n := len(st.stepMACs) - 1
	lo, s := min(j.sPrev, n)+1, min(j.s, n)
	if st.kind == stageHead || st.shared {
		lo = s
	}
	for q := lo; q <= s; q++ {
		macs += st.stepMACs[q]
	}
	return macs
}

// fillGroup writes input channel ch into its gather group, whose rows
// start at off: a row per tap (ky,kx), the channel's plane shifted by
// the tap — at stride 1, a padded-height plane per kx, which every ky
// reads a window of. Positions whose tap leaves the image are never
// written and stay at the zero the buffer was allocated with.
func (st *stage) fillGroup(gat, img []float64, ch int, off []int) {
	g, outW := st.geom, st.geom.OutW()
	plane := img[ch*g.InH*g.InW : (ch+1)*g.InH*g.InW]
	taps, rows := g.K, g.OutH()
	if g.Stride == 1 {
		taps, rows = 1, g.InH+2*g.Pad
	}
	for ky := 0; ky < taps; ky++ {
		for kx := 0; kx < g.K; kx++ {
			row, s := gat[off[ky*g.K+kx]:], kx-g.Pad
			if g.Stride == 1 && outW == g.InW {
				// Same width: the whole plane moves sideways in one piece,
				// and what wrapped around a row's end is padding again.
				body, wrap := row[g.Pad*outW:][:len(plane)], 0
				copy(body[max(-s, 0):], plane[max(s, 0):])
				if s > 0 {
					wrap = outW - s
				}
				for y := wrap; y < len(body); y += outW {
					for x := range max(s, -s) { // a memclr call costs more than these one or two
						body[y+x] = 0
					}
				}
				continue
			}
			// Output columns whose tap lands inside the input row.
			ox0 := max(0, (g.Stride-1-s)/g.Stride)
			ox1 := min(outW, max(0, (g.InW+g.Stride-1-s)/g.Stride))
			for y := 0; y < rows; y++ {
				if iy := y*g.Stride + ky - g.Pad; iy >= 0 && iy < g.InH {
					for ox := ox0; ox < ox1; ox++ {
						row[y*outW+ox] = plane[iy*g.InW+ox*g.Stride+s]
					}
				}
			}
		}
	}
}

// runPanel computes one rung's units for one image into the units' own
// planes of out; z holds a conv's finished planes before pooling.
func (st *stage) runPanel(p *panel, gat, out, z []float64) {
	nu := len(p.units)
	if nu == 0 {
		return
	}
	if st.kind == stageConv {
		tensor.RungGemm(z[:nu*st.r], p.w, gat, st.rowOff[:p.k], p.bias, nu, p.k, st.r, st.relu)
		st.pool(out, z, p.units)
		return
	}
	tensor.GemmTransBSerial(z[:nu], gat[:p.k], p.w, 1, p.k, nu, false)
	for i, o := range p.units {
		v := z[i] + p.bias[i]
		if st.relu && !(v > 0) {
			v = 0
		}
		out[o] = v
	}
}

// pool writes the panel's finished conv planes z (OutH×OutW per unit)
// to the units' output planes, through the 2×2 max if the stage pools.
// Only a pool behind a ReLU is fused, so z holds no NaN and nothing
// below +0, and such floats order as their bit patterns do: nn.
// MaxPool2D's max is an integer max, with no NaN case and no branch on
// which of two activations is larger (a coin toss to the predictor).
func (st *stage) pool(out, z []float64, units []int) {
	w, ow := st.geom.OutW(), st.geom.OutW()/2
	for i, o := range units {
		dst, zp := out[o*st.plane:(o+1)*st.plane], z[i*st.r:(i+1)*st.r]
		if st.poolK == 1 {
			copy(dst, zp)
			continue
		}
		for oy := 0; oy*ow < len(dst); oy++ {
			d, r0, r1 := dst[oy*ow:][:ow], zp[2*oy*w:][:w], zp[(2*oy+1)*w:][:w]
			for ox := range d {
				d[ox] = math.Float64frombits(max(math.Float64bits(r0[2*ox]), math.Float64bits(r0[2*ox+1]),
					math.Float64bits(r1[2*ox]), math.Float64bits(r1[2*ox+1])))
			}
		}
	}
}

// shard is the scratch one worker steps with; shards[0] belongs to
// the goroutine that calls Step.
type shard struct {
	pool       *tensor.Pool  // generic stages' layer outputs and temporaries
	ctx        nn.Context    // generic stages' reusable eval context
	z          []float64     // one panel's raw product
	in, cached tensor.Tensor // reusable row-range views for generic stages
}

// stepGeneric advances rows [b0,b1) of a generic stage the way the
// per-layer reference walk does — RuleShared layers recompute,
// nn.Incremental layers get their previous output as the cache,
// anything else just runs — and copies the layer's output into the
// stage buffer.
func (st *stage) stepGeneric(sh *shard, in *tensor.Tensor, j shardJob) int64 {
	x := sh.in.ViewRows(in, j.b0, j.b1)
	sh.ctx.Subnet, sh.ctx.Scratch = j.s, sh.pool
	var out *tensor.Tensor
	var macs int64
	if st.shared {
		out, macs = st.layer.Forward(x, &sh.ctx), st.macs(j)
	} else if inc, ok := st.layer.(nn.Incremental); ok {
		var cached *tensor.Tensor
		if j.top > 0 {
			cached = sh.cached.ViewRows(&st.out, j.b0, j.b1)
		}
		out, macs = inc.ForwardIncremental(x, cached, j.sPrev, j.s, sh.pool)
	} else {
		out = st.layer.Forward(x, &sh.ctx)
	}
	copy(st.out.Data()[j.b0*st.outLen:j.b1*st.outLen], out.Data())
	if !out.Aliases(x) {
		sh.pool.Put(out)
	}
	return macs
}

// rowShapes returns each stage's per-image output shape for inputs of
// per-image shape row, checking that the shapes chain. A generic
// stage's shape is found by running its layer once on one zero image.
func rowShapes(stages []stage, row []int) ([][]int, error) {
	shapes := make([][]int, len(stages))
	for i := range stages {
		st := &stages[i]
		vol := 1
		for _, d := range row {
			vol *= d
		}
		want := len(st.order) * st.per
		switch st.kind {
		case stageGeneric:
			probe := st.layer.Forward(tensor.New(append([]int{1}, row...)...), &nn.Context{Subnet: 1})
			shapes[i] = append([]int(nil), probe.Shape()[1:]...)
		case stageConv:
			g := st.geom
			want = g.InC * g.InH * g.InW
			shapes[i] = []int{g.OutC, g.OutH() / st.poolK, g.OutW() / st.poolK}
		default:
			shapes[i] = []int{st.units}
		}
		if st.kind != stageGeneric && vol != want {
			return nil, fmt.Errorf("infer: stage %q wants %d input elements per image, gets shape %v", st.name, want, row)
		}
		row = shapes[i]
	}
	return shapes, nil
}
