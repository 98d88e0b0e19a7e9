package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/governor"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// The traced run measures the layers from outside, by timing calls
// into their public functions from this process: first the serving
// stack a replica assembles around each request (decode → key →
// submit → encode, through a router for the routed workload), then
// the kernels under it (engine steps, nn layers, tensor calls at the
// model's own shapes). Nothing in the served program is instrumented.

const (
	replayRequests   = 2000 // requests replayed through the serving stack, traced (one more in four untraced)
	replayWarm       = 300  // warm-up prefix sent before either
	kernelInputs     = 256  // inputs walked by the kernel replay
	microReps        = 400  // repetitions of a micro-probe (median reported)
	remoteSubmitReps = 300
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// layerProbe carries the state of one traced run.
type layerProbe struct {
	wl    *workload
	g     *generator
	tr    *tracer
	out   metrics
	m     *models.Model
	nproc int
	// served remembers, per replayed request, what the stack answered,
	// so the submit span can be charged with the walk it contained.
	served []servedReq
	// stepUs is the kernel replay's median step time at the engine
	// fan-out a lone served request gets (Workers = nproc).
	stepUs [ladderRungs]float64
}

type servedReq struct {
	span   int
	subnet int
	hit    bool
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timeReps runs f reps times and returns the median duration in µs.
func timeReps(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = us(time.Since(t0))
	}
	return median(ds)
}

// newReplayServer assembles the serving layer exactly as a stepserve
// replica with the benchmark's flags does: stepserve's flag defaults,
// plus -cache.
func newReplayServer() (*serve.Server, error) {
	m, err := buildServedModel()
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Config{
		Model: m, Subnets: ladderRungs,
		QueueDepth: 64, MaxBatch: 4, PriorityClasses: 2,
		DefaultDeadline: 20 * time.Millisecond,
		RefreshInterval: 2 * time.Second,
		CacheEntries:    serveCache,
	})
}

// replayServing pushes the first requests of the run through an
// in-process copy of the serving stack, one span per boundary.
// liveReplica is the URL of a running replica, for the routed
// workload's cluster.Remote probe.
func (lp *layerProbe) replayServing(liveReplica string) error {
	routed := lp.wl.topo == topoRouted
	var submit func(serve.Request) (serve.Result, error)
	var locals []*cluster.Local
	submitSpan := "serve.submit"
	if routed {
		for _, name := range []string{"a", "b"} {
			srv, err := newReplayServer()
			if err != nil {
				return err
			}
			locals = append(locals, &cluster.Local{Srv: srv, Name: name})
		}
		ro, err := cluster.NewRouter(cluster.RouterConfig{
			Backends:        []cluster.Backend{locals[0], locals[1]},
			DefaultDeadline: 20 * time.Millisecond,
			Affinity:        true, AffinitySpillFactor: 2,
		})
		if err != nil {
			return err
		}
		defer ro.Close() // closes both servers
		submit, submitSpan = ro.Submit, "cluster.route"
	} else {
		srv, err := newReplayServer()
		if err != nil {
			return err
		}
		defer srv.Close()
		submit = srv.Submit
	}

	var body []byte
	var enc bytes.Buffer
	one := func(tr *tracer, stream uint64, i int) (time.Duration, error) {
		input, tail := lp.g.pick(stream, i)
		body = lp.g.appendBody(body[:0], input, tail)
		t0 := time.Now()
		root := tr.begin("request", i, -1)

		sp := tr.begin("stepserve.decode", i, root)
		var req cluster.InferRequest
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("replay decode: %w", err)
		}

		sp = tr.begin("cache.keyof", i, root)
		sink = cache.KeyOf(req.Input)
		tr.end(sp)

		sp = tr.begin(submitSpan, i, root)
		ts := time.Now()
		res, err := submit(serve.Request{
			Input:    req.Input,
			Deadline: time.Duration(req.DeadlineMs * float64(time.Millisecond)),
			Priority: req.Priority,
		})
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("replay submit: %w", err)
		}
		tr.add("serve.queue_wait", i, sp, ts, res.QueueWait)
		if tr != nil {
			lp.served = append(lp.served, servedReq{span: sp, subnet: res.Subnet, hit: res.CacheHit})
		}

		sp = tr.begin("stepserve.encode", i, root)
		enc.Reset()
		err = json.NewEncoder(&enc).Encode(cluster.WireResponse(res))
		tr.end(sp)
		tr.end(root)
		return time.Since(t0), err
	}

	for i := 0; i < replayWarm; i++ {
		if _, err := one(nil, streamWarm, i); err != nil {
			return err
		}
	}
	// Every fifth request goes untraced, so both sides of the overhead
	// comparison see the same mix of hits, misses and deadlines.
	var traced, untraced []float64
	for i := 0; len(traced) < replayRequests; i++ {
		if i%5 == 4 {
			d, err := one(nil, streamRun, i)
			if err != nil {
				return err
			}
			untraced = append(untraced, us(d))
			continue
		}
		d, err := one(lp.tr, streamRun, i)
		if err != nil {
			return err
		}
		traced = append(traced, us(d))
	}
	base := median(untraced)
	lp.out["trace.overhead_share"] = share(median(traced)-base, base)
	lp.out["stepserve.decode_us"] = median(lp.tr.perReq("stepserve.decode", false))
	lp.out["stepserve.encode_us"] = median(lp.tr.perReq("stepserve.encode", false))
	lp.out["cache.keyof_us"] = median(lp.tr.perReq("cache.keyof", false))

	if !routed {
		return nil
	}
	// The router's own cost: Router.Submit over in-process backends
	// minus the same submit made directly, both on an input every
	// server already holds at the top rung.
	hot := serve.Request{Input: lp.g.inputs[0], Deadline: 50 * time.Millisecond}
	for _, l := range locals {
		if _, err := l.Submit(context.Background(), hot); err != nil {
			return err
		}
	}
	viaRouter := timeReps(microReps, func() { sink, _ = submit(hot) })
	direct := timeReps(microReps, func() { sink, _ = locals[0].Submit(context.Background(), hot) })
	lp.out["cluster.route_pick_us"] = viaRouter - direct

	// The hop's client side: cluster.Remote against a live replica, on
	// an input that replica holds, so the replica's own work is a read.
	rem := cluster.NewRemote(liveReplica)
	defer rem.Close()
	if _, err := rem.Submit(context.Background(), hot); err != nil {
		return fmt.Errorf("remote probe: %w", err)
	}
	var remoteErr error
	ds := make([]float64, remoteSubmitReps)
	for i := range ds {
		sp := lp.tr.begin("cluster.remote", i, -1)
		t0 := time.Now()
		_, err := rem.Submit(context.Background(), hot)
		ds[i] = us(time.Since(t0))
		lp.tr.end(sp)
		if err != nil {
			remoteErr = err
		}
	}
	lp.out["cluster.remote_submit_us"] = median(ds)
	return remoteErr
}

// layerKind sorts a layer into the classes the report uses.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "nn.conv"
	case *nn.Dense:
		return "nn.dense"
	case *nn.MaxPool2D:
		return "nn.pool"
	case *nn.ReLU:
		return "nn.relu"
	}
	return "nn.other"
}

// stepLayer advances one layer the way infer.Engine does: a
// recompute-per-rung layer (the classifier head) runs Forward, an
// incremental layer reuses its cached output.
func stepLayer(l nn.Layer, x, cached *tensor.Tensor, sPrev, s int, pool *tensor.Pool) *tensor.Tensor {
	if m, ok := l.(nn.Masked); ok && m.Rule() == nn.RuleShared {
		return l.Forward(x, &nn.Context{Subnet: s, Scratch: pool})
	}
	if inc, ok := l.(nn.Incremental); ok {
		out, _ := inc.ForwardIncremental(x, cached, sPrev, s, pool)
		return out
	}
	return l.Forward(x, &nn.Context{Subnet: s, Scratch: pool})
}

// walk steps an engine up the whole ladder on x and returns the step
// durations; with a tracer it records one span per step.
func (lp *layerProbe) walk(e *infer.Engine, x *tensor.Tensor, tr *tracer, req int) (steps [ladderRungs]time.Duration, macs [ladderRungs]int64, err error) {
	root := tr.begin("infer.walk", req, -1)
	e.Reset(x)
	for s := 1; s <= ladderRungs; s++ {
		sp := tr.begin(fmt.Sprintf("infer.step%d", s), req, root)
		t0 := time.Now()
		_, macs[s-1], err = e.Step(s)
		steps[s-1] = time.Since(t0)
		tr.end(sp)
		if err != nil {
			return steps, macs, err
		}
	}
	tr.end(root)
	return steps, macs, nil
}

// walkInputs walks each of the kernel replay's inputs up the ladder on
// e and returns the median walk and step times in µs and the steps'
// MAC counts.
func (lp *layerProbe) walkInputs(e *infer.Engine, x *tensor.Tensor, tr *tracer) (walkUs float64, stepUs [ladderRungs]float64, macs [ladderRungs]int64, err error) {
	var perStep [ladderRungs][]float64
	walks := make([]float64, 0, kernelInputs)
	for i := 0; i < kernelInputs; i++ {
		lp.loadInput(x, i)
		var steps [ladderRungs]time.Duration
		if steps, macs, err = lp.walk(e, x, tr, i); err != nil {
			return 0, stepUs, macs, err
		}
		total := 0.0
		for s, d := range steps {
			perStep[s] = append(perStep[s], us(d))
			total += us(d)
		}
		walks = append(walks, total)
	}
	for s := range perStep {
		stepUs[s] = median(perStep[s])
	}
	return median(walks), stepUs, macs, nil
}

// replayKernels walks the first inputs of the run on an in-process
// engine: per step, per nn layer, and per tensor call at the shapes
// the model's layers use. The serial profile is taken with
// GOMAXPROCS(1), which also empties the tensor arena's helper budget:
// left at the box's CPU count, a "serial" walk still hands im2col
// rows to helpers, and its timing comes out in modes up to 40% apart
// depending on where the helpers land. The fan-out variants (a lone
// request's sharded walk, batches) then run at the full count.
func (lp *layerProbe) replayKernels() error {
	procs := runtime.GOMAXPROCS(1)
	st, low, err := lp.replaySerial()
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	net := lp.m.Net

	// The same walk at the engine fan-out a served lone request gets.
	x := tensor.New(1, imgC, imgHW, imgHW)
	eN := infer.NewEngine(net)
	eN.Workers = lp.nproc
	defer eN.Close()
	walkN, stepN, _, err := lp.walkInputs(eN, x, nil)
	if err != nil {
		return err
	}
	lp.out["infer.walk_b1_wN_us"], lp.stepUs = walkN, stepN

	// Batches of 8, sharded by image.
	x8 := tensor.New(8, imgC, imgHW, imgHW)
	var walks []float64
	for op := 0; op < kernelInputs/8; op++ {
		lp.loadBatch(x8, op)
		steps, _, err := lp.walk(eN, x8, nil, op)
		if err != nil {
			return err
		}
		walks = append(walks, us(steps[0]+steps[1]+steps[2]+steps[3]))
	}
	lp.out["infer.walk_b8_us"] = median(walks)

	// A repeat resuming from the narrowest rung, at the same fan-out.
	var stErr error
	lp.out["infer.import_us"] = timeReps(microReps, func() { stErr = eN.ImportState(x, low) })
	if stErr != nil {
		return stErr
	}
	lp.probeCache(st)

	// The same layers in their batched and training uses.
	pool := tensor.NewPool()
	ctx := &nn.Context{Subnet: ladderRungs, Scratch: pool}
	lp.loadBatch(x8, 0)
	lp.out["nn.forward_b8_us"] = timeReps(60, func() { pool.Put(net.Forward(x8, ctx)) })
	trainNet, err := buildServedModel() // training caches activations in the layers: use a private copy
	if err != nil {
		return err
	}
	x32 := tensor.New(32, imgC, imgHW, imgHW)
	lp.loadBatch(x32, 0)
	tctx := &nn.Context{Subnet: ladderRungs, Train: true, Scratch: tensor.NewPool()}
	lp.out["nn.fwdbwd_b32_us"] = timeReps(12, func() {
		out := trainNet.Net.Forward(x32, tctx)
		grad := tctx.Scratch.GetUninit(out.Shape()...)
		grad.Fill(0.01)
		tctx.Scratch.Put(trainNet.Net.Backward(grad, tctx))
		tctx.Scratch.Put(grad)
		trainNet.Net.ZeroGrad()
	})

	const n = 128
	a, b, c := scratch(0, n*n), scratch(1, n*n), scratch(2, n*n)
	peakUs := timeReps(60, func() { tensor.Gemm(c, a, b, n, n, n, false) })
	lp.out["tensor.gemm_peak_gflops"] = share(2*n*n*n/1e3, peakUs)
	return nil
}

// replaySerial is the serial profile of a batch-1 ladder walk: engine
// steps, nn layers, tensor calls. It returns the top-rung state a cold
// walk exports and a rung-1 state to resume from.
func (lp *layerProbe) replaySerial() (st, low *infer.LadderState, err error) {
	net := lp.m.Net
	x := tensor.New(1, imgC, imgHW, imgHW)
	e := infer.NewEngine(net)
	e.Workers = 1
	defer e.Close()
	walkUs, stepUs, stepMACs, err := lp.walkInputs(e, x, lp.tr)
	if err != nil {
		return nil, nil, err
	}
	var cold, scratch int64
	for s := 0; s < ladderRungs; s++ {
		lp.out[fmt.Sprintf("infer.step%d_us", s+1)] = stepUs[s]
		lp.out[fmt.Sprintf("infer.kmacs_step%d", s+1)] = float64(stepMACs[s]) / 1e3
		cold += stepMACs[s]
		scratch += net.MACs(s + 1)
	}
	lp.out["infer.walk_b1_us"] = walkUs
	lp.out["infer.gmacs_per_s"] = share(float64(cold)/1e3, walkUs)
	// Exact, from the MAC counters alone: what the ladder costs walked
	// incrementally, over what its rungs cost computed one by one.
	lp.out["infer.reuse_mac_ratio"] = share(float64(cold), float64(scratch))

	// Ladder state export: a cold walk publishing its top rung.
	lp.out["infer.export_us"] = timeReps(microReps, func() { st, err = e.ExportState(0) })
	if err != nil {
		return nil, nil, err
	}
	lp.out["infer.state_bytes"] = float64(st.Bytes())
	e.Reset(x)
	if _, _, err = e.Step(1); err != nil {
		return nil, nil, err
	}
	if low, err = e.ExportState(0); err != nil {
		return nil, nil, err
	}

	// nn layers, one span per layer per step.
	layers := net.Layers()
	pool := tensor.NewPool()
	cached := make([]*tensor.Tensor, len(layers))
	for i := 0; i < kernelInputs; i++ {
		lp.loadInput(x, i)
		for li := range cached {
			pool.Put(cached[li])
			cached[li] = nil
		}
		root := lp.tr.begin("nn.walk", i, -1)
		for s := 1; s <= ladderRungs; s++ {
			stepSpan := lp.tr.begin("nn.step", i, root)
			in := x
			for li, l := range layers {
				sp := lp.tr.begin(layerKind(l), i, stepSpan)
				out := stepLayer(l, in, cached[li], s-1, s, pool)
				lp.tr.end(sp)
				pool.Put(cached[li])
				cached[li] = out
				in = out
			}
			lp.tr.end(stepSpan)
		}
		lp.tr.end(root)
	}
	for _, kind := range []string{"nn.conv", "nn.dense", "nn.pool", "nn.relu"} {
		lp.out[kind+"_us"] = median(lp.tr.perReq(kind, false))
	}
	// Everything else a step does: the flatten and the loop around the
	// layers (a step span's time not covered by its layer spans).
	other := lp.tr.perReq("nn.other", false)
	for i, v := range lp.tr.perReq("nn.step", true) {
		other[i] += v
	}
	lp.out["nn.other_us"] = median(other)

	lp.replayTensor(walkUs)
	return st, low, nil
}

// loadInput copies the input of request i of the measured stream (for
// the library workload, image i of the pool) into x.
func (lp *layerProbe) loadInput(x *tensor.Tensor, i int) {
	input := i % len(lp.g.inputs)
	if lp.wl.topo != topoLib {
		input, _ = lp.g.pick(streamRun, i)
	}
	copy(x.Data(), lp.g.inputs[input])
}

// loadBatch fills x with the images of batched op number op.
func (lp *layerProbe) loadBatch(x *tensor.Tensor, op int) {
	b := x.Dim(0)
	for j := 0; j < b; j++ {
		copy(x.Data()[j*imgLen:(j+1)*imgLen], lp.g.inputs[(op*b+j)%len(lp.g.inputs)])
	}
}

// replayTensor repeats the tensor calls of one batch-1 ladder walk at
// the shapes the model's layers issue them: per convolution and step
// an im2col of the layer's geometry and a GEMM of (positions × patch)
// by (patch × filters new at that step); per step the head's
// (1 × in) by (in × classes) product. FLOPs and bytes are computed
// from those shapes, not measured.
func (lp *layerProbe) replayTensor(walkUs float64) {
	var flops, bytesMoved float64
	for i := 0; i < kernelInputs; i++ {
		root := lp.tr.begin("tensor.walk", i, -1)
		for _, l := range lp.m.Net.Layers() {
			switch l := l.(type) {
			case *nn.Conv2D:
				g := l.Geom()
				r, cc := g.ColRows(), g.ColCols()
				img := scratch(0, g.InC*g.InH*g.InW)
				col := scratch(1, r*cc)
				a := l.OutAssignment()
				for s := 1; s <= ladderRungs; s++ {
					nNew := 0
					for u := 0; u < a.Units(); u++ {
						if a.ID(u) == s {
							nNew++
						}
					}
					if nNew == 0 {
						continue
					}
					sp := lp.tr.begin("tensor.im2col", i, root)
					tensor.ParallelIm2Col(g, img, col)
					lp.tr.end(sp)
					wt, z := scratch(2, cc*nNew), scratch(3, r*nNew)
					sp = lp.tr.begin("tensor.gemm", i, root)
					tensor.Gemm(z, col, wt, r, cc, nNew, false)
					lp.tr.end(sp)
					if i == 0 {
						flops += 2 * float64(r*cc*nNew)
						bytesMoved += 8 * float64(len(img)+r*cc) // im2col: read the image, write the patches
						bytesMoved += 8 * float64(r*cc+cc*nNew+r*nNew)
					}
				}
			case *nn.Dense:
				in, out := l.In(), l.Out()
				xr, w, z := scratch(0, in), scratch(1, out*in), scratch(2, out)
				for s := 1; s <= ladderRungs; s++ {
					sp := lp.tr.begin("tensor.gemm", i, root)
					tensor.GemmTransB(z, xr, w, 1, in, out, false)
					lp.tr.end(sp)
					if i == 0 {
						flops += 2 * float64(in*out)
						bytesMoved += 8 * float64(in+out*in+out)
					}
				}
			}
		}
		lp.tr.end(root)
	}
	gemmUs := median(lp.tr.perReq("tensor.gemm", false))
	lp.out["tensor.gemm_us"] = gemmUs
	lp.out["tensor.im2col_us"] = median(lp.tr.perReq("tensor.im2col", false))
	lp.out["tensor.gemm_share"] = share(gemmUs, walkUs)
	lp.out["tensor.gemm_flops"] = flops
	lp.out["tensor.bytes_moved"] = bytesMoved
}

// scratchBufs backs scratch: a few reusable operand buffers filled
// with non-zero values (the kernels skip all-zero rows).
var scratchBufs [4][]float64

func scratch(slot, n int) []float64 {
	if len(scratchBufs[slot]) < n {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = 0.5 + float64(i%7)/8
		}
		scratchBufs[slot] = buf
	}
	return scratchBufs[slot][:n]
}

// probeCache times the semantic cache's read and write with entries
// of the size a served cold walk publishes, at the replica's capacity,
// and the planning calls of the governor a request passes through.
func (lp *layerProbe) probeCache(st *infer.LadderState) {
	c := cache.New(cache.Config{MaxEntries: serveCache, MaxBytes: 64 << 20})
	logits := make([]float64, 10)
	k := 0
	// Twice the capacity first, so every timed Put also evicts.
	for ; k < 2*serveCache; k++ {
		c.Put(cache.Key(mix(uint64(k))), &cache.Entry{Subnet: ladderRungs, Logits: logits, State: st})
	}
	lp.out["cache.put_us"] = timeReps(microReps, func() {
		c.Put(cache.Key(mix(uint64(k))), &cache.Entry{Subnet: ladderRungs, Logits: logits, State: st})
		k++
	})
	j := 0 // the live entries are the last serveCache keys put
	lp.out["cache.get_us"] = timeReps(microReps, func() {
		sink, _ = c.Get(cache.Key(mix(uint64(k - 1 - j%serveCache))))
		j++
	})

	stepTime := make([]time.Duration, ladderRungs)
	for s := range stepTime {
		stepTime[s] = time.Duration(lp.out[fmt.Sprintf("infer.step%d_us", s+1)] * 1e3)
	}
	lat := governor.LatencyModel{StepMACs: governor.StepCosts(lp.m, ladderRungs), StepTime: stepTime}
	const batch = 1000 // the calls take nanoseconds: time them a thousand at a time
	d := 100 * time.Microsecond
	lp.out["governor.plan_us"] = timeReps(40, func() {
		for i := 0; i < batch; i++ {
			sink = lat.MaxSubnetWithin(d) + int(lat.BudgetFor(d)&1)
			d += time.Microsecond
		}
	}) / batch
	ctl, err := governor.NewController(governor.ControllerConfig{
		Classes: 2, Subnets: ladderRungs,
		SLOs: []governor.SLO{{}, {P99Target: 2 * time.Millisecond, MinHitRate: 0.99}},
	})
	if err != nil {
		panic(err) // a constant, valid configuration
	}
	obs := []governor.ClassObs{{P99: time.Millisecond, HitRate: 1, Served: 100}, {P99: time.Millisecond, HitRate: 1, Served: 100}}
	lp.out["governor.tick_us"] = timeReps(40, func() {
		for i := 0; i < batch; i++ {
			sink = ctl.Tick(obs)
		}
	}) / batch
}

// chargeSubmit reports what the serving layer's Submit costs beyond
// the work it schedules: per replayed request, the submit span minus
// the queue wait the service reported (its child span) minus the
// replayed walk to the answered rung (nothing for a cache hit).
func (lp *layerProbe) chargeSubmit() {
	self := lp.tr.selfUs()
	var vals []float64
	for _, r := range lp.served {
		v := self[r.span]
		if !r.hit {
			for s := 0; s < r.subnet; s++ {
				v -= lp.stepUs[s]
			}
		}
		vals = append(vals, v)
	}
	lp.out["serve.submit_self_us"] = median(vals)
}

// runLayers is the in-process half of a traced run.
func runLayers(wl *workload, g *generator, tr *tracer, liveReplica string) (metrics, error) {
	m, err := buildServedModel()
	if err != nil {
		return nil, err
	}
	lp := &layerProbe{wl: wl, g: g, tr: tr, out: metrics{}, m: m, nproc: runtime.NumCPU()}
	if wl.topo != topoLib {
		if err := lp.replayServing(liveReplica); err != nil {
			return nil, err
		}
	}
	if err := lp.replayKernels(); err != nil {
		return nil, err
	}
	lp.chargeSubmit()
	return lp.out, nil
}
