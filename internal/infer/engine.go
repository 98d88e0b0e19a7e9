// Package infer provides the anytime-inference engine that realizes
// the paper's deployment story: run a small subnet for a fast
// preliminary decision, then — whenever resources become available —
// "enhance the inference accuracy by executing further MAC
// operations" without recomputing what smaller subnets already
// produced (§I, §II). Conversely, when resources shrink, switching
// down to a smaller subnet costs (almost) nothing because the small
// subnet's activations are a subset of the kept ones.
//
// The engine does not call the network's layers one by one. NewEngine
// compiles the ladder into a step plan (plan.go) — fused stages over
// persistent buffers, one pre-packed weight panel per stage and rung,
// each conv rung one tensor.RungGemm over views of the kept input — so
// a step from rung s′ to s touches only the units the rungs in between
// add: reuse pays in wall-clock time, not only in MACs.
// Engine.Stages and Engine.StageTimer expose the plan for profiling;
// LadderState (resume.go) is what the plan keeps between rungs, in
// portable form, and ImportState is the trust boundary it re-enters
// through.
package infer

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

// Engine executes one input batch through a masked network
// incrementally, keeping every stage's activations between subnet
// switches. NewEngine compiles the network into a step plan (plan.go):
// stages over engine-owned persistent buffers, with the weights of
// every rung pre-packed, so a step touches only the units its rungs
// add and steady-state stepping allocates nothing (enforced by
// TestStepSteadyStateAllocs). The network is read at NewEngine; later
// changes to its weights, masks or assignments are not seen.
//
// A single image is always walked on the calling goroutine. Batches
// of two or more images are sharded by IMAGE over persistent workers
// when a step is big enough to repay the hand-off (shardMinMACs): each
// walks its contiguous rows through the whole plan, writing straight
// into the shared stage buffers, and the split is static, so an image
// stays with the worker that holds its kept activations. While there
// is a core per shard, a worker polls briefly for its next job before
// it parks, and the caller polls for the shards before it waits: the
// hand-off between the steps of a walk costs no wake-up. Images are
// computed one at a time by the same code either way, so the sharded
// walk is BITWISE identical to the serial one at every worker count
// (TestImageShardingMatchesSerial).
type Engine struct {
	net    *nn.Network
	stages []stage
	n      int // ladder depth

	input    *tensor.Tensor
	resetErr error   // why the last Reset could not bind its input
	inRow    []int   // per-image input shape the stage buffers are bound to
	shapes   [][]int // per-image output shape of every stage under inRow
	rows     int     // batch capacity of the stage buffers
	cur      int     // current subnet (0 = nothing computed yet)
	gathered int     // rung the stages' gathers are filled to

	// Audit, when true, cross-checks every Step against a
	// from-scratch forward pass and panics on divergence — the
	// runtime enforcement of the incremental property. Intended for
	// tests and demos, not hot paths.
	Audit bool

	// Workers caps the image-sharding fan-out of batches of two or
	// more images; 0 means GOMAXPROCS, 1 forces the serial walk. Steps
	// too small to repay the hand-off stay serial (shardMinMACs).
	Workers int

	// StepTimer, when non-nil, observes every successful Step with
	// the subnet stepped to, the batch rows walked, and the step's
	// wall-clock duration. It is the live-timing hook a calibration
	// refresh loop (internal/serve) feeds on: unlike the one-shot
	// CalibrateSteps, it sees real steps under real contention, so
	// thermal or load drift shows up in the observations. The callback
	// runs synchronously on the stepping goroutine and must be cheap
	// and allocation-free to preserve the walk's zero-alloc property;
	// when nil (the default) Step takes no timestamps at all.
	StepTimer func(subnet, rows int, d time.Duration)

	// StageTimer, when non-nil, observes every plan stage of every
	// Step (index into Stages, subnet stepped to, duration) as walked
	// by the calling goroutine — the whole batch when serial, its own
	// shard otherwise. Same rules as StepTimer: synchronous, must not
	// allocate, and when nil no timestamps are taken.
	StageTimer func(stage, subnet int, d time.Duration)

	// shards[0] is the calling goroutine's scratch; the others belong
	// to the persistent shard workers, mail[wi-1] feeding worker wi (a
	// `go` statement per Step would allocate its closure).
	shards       []*shard
	minShardMACs int64 // shardMinMACs; tests that must shard a small model zero it
	zLen         int
	mail         []*mailbox
	pending      atomic.Int32   // shards of the current step still on the workers
	wg           sync.WaitGroup // the same count, for a caller whose poll ran out
	workerWG     sync.WaitGroup // tracks worker goroutine lifetimes for Close

	totalMACs int64
}

// mailbox hands one persistent worker its jobs. The caller writes job
// and posts it; a worker polling for work sees the post, a parked one
// is also sent a token on wake.
type mailbox struct {
	job   shardJob
	state atomic.Int32 // mailIdle, mailPosted or mailParked
	wake  chan struct{}
	polls int // times the worker polled for a job; the worker's own, read after Close
}

const (
	mailIdle   = iota // the worker is running a job or polling
	mailPosted        // job holds the worker's next job
	mailParked        // the worker waits on wake
)

// pollBudget is how long a worker polls for its next job, and a caller
// for its shards, before parking: enough to span two steps' gap.
const pollBudget = 100 * time.Microsecond

// NewEngine compiles the network into a step plan. Conv2D and Dense
// layers are stepped natively (fused with a following ReLU and
// max-pool); every other layer must implement nn.Incremental, be a
// masked RuleShared layer (recomputed per step) or be parameter-free.
func NewEngine(net *nn.Network) *Engine {
	e := &Engine{net: net, minShardMACs: shardMinMACs}
	e.stages, e.n = compile(net)
	for i := range e.stages {
		e.zLen = max(e.zLen, e.stages[i].zLen())
	}
	e.ensureShards(1)
	return e
}

// StageInfo describes one stage of the engine's step plan.
type StageInfo struct {
	// Name joins the names of the layers the stage fuses.
	Name string
	// Kind is "conv", "dense", "head" or "generic".
	Kind string
	// StepMACs[s-1] is the exact per-image MAC count the stage
	// executes in a one-rung step s-1→s.
	StepMACs []int64
}

// Stages lists the plan's stages in execution order.
func (e *Engine) Stages() []StageInfo {
	infos := make([]StageInfo, len(e.stages))
	for i := range e.stages {
		st := &e.stages[i]
		infos[i] = StageInfo{Name: st.name, Kind: kindNames[st.kind], StepMACs: st.stepMACs[1:]}
	}
	return infos
}

// bind sizes the stage buffers for x's shape and batch. Steady-state
// calls find everything sized and only repoint the batch views.
func (e *Engine) bind(x *tensor.Tensor) error {
	if x == nil || x.Rank() == 0 {
		return fmt.Errorf("infer: input must have a batch dimension")
	}
	batch, row := x.Dim(0), x.Shape()[1:]
	if e.inRow == nil || !slices.Equal(row, e.inRow) {
		shapes, err := rowShapes(e.stages, row)
		if err != nil {
			return err
		}
		e.inRow, e.shapes, e.rows = slices.Clone(row), shapes, 0
		inLen := x.Len() / max(batch, 1)
		for i := range e.stages {
			st := &e.stages[i]
			st.inLen, st.outLen = inLen, 1
			for _, d := range shapes[i] {
				st.outLen *= d
			}
			inLen = st.outLen
		}
	}
	for i := range e.stages {
		st := &e.stages[i]
		if batch > e.rows {
			st.full = tensor.New(append([]int{batch}, e.shapes[i]...)...)
			st.gather = make([]float64, batch*st.gatherLen)
		}
		st.out.ViewRows(st.full, 0, batch)
	}
	e.rows = max(e.rows, batch)
	return nil
}

// Reset installs a new input batch and clears all kept activations.
// An input the network cannot take is reported by the next Step.
func (e *Engine) Reset(x *tensor.Tensor) {
	e.input, e.cur, e.gathered, e.totalMACs = nil, 0, 0, 0
	if e.resetErr = e.bind(x); e.resetErr != nil {
		return
	}
	e.input = x
	for i := range e.stages {
		clear(e.stages[i].out.Data())
	}
}

// Current returns the subnet the engine currently represents (0
// before the first Step).
func (e *Engine) Current() int { return e.cur }

// Network returns the network the engine walks, for callers that
// hold only the engine and need model-level facts (layer geometry,
// MAC ladders) about what it serves.
func (e *Engine) Network() *nn.Network { return e.net }

// TotalMACs returns the MACs executed since the last Reset.
func (e *Engine) TotalMACs() int64 { return e.totalMACs }

// Step moves the engine to subnet s and returns the network output
// for subnet s plus the MACs this transition actually executed (per
// image, as everywhere in this reproduction). Stepping up computes
// only newly activated units; stepping down executes zero backbone
// MACs (the head, being recomputed per subnet, is charged on every
// step). The returned tensor is owned by the engine and valid until
// the next Step or Reset.
func (e *Engine) Step(s int) (*tensor.Tensor, int64, error) {
	if e.input == nil {
		if e.resetErr != nil {
			return nil, 0, e.resetErr
		}
		return nil, 0, fmt.Errorf("infer: Step before Reset")
	}
	if s < 1 {
		return nil, 0, fmt.Errorf("infer: subnet %d out of range", s)
	}
	batch := e.input.Dim(0)
	// Stepping down reuses only the units active in s.
	job := shardJob{b1: batch, sPrev: min(e.cur, s), s: s, top: e.cur, gathered: e.gathered}

	var start time.Time
	if e.StepTimer != nil {
		start = time.Now()
	}
	var stepMACs int64
	if w := e.workers(job); w > 1 {
		stepMACs = e.stepParallel(job, w)
	} else {
		stepMACs = e.runShard(job)
	}
	if e.StepTimer != nil {
		e.StepTimer(s, batch, time.Since(start))
	}
	e.cur, e.gathered = s, s
	e.totalMACs += stepMACs
	out := e.Output()

	if e.Audit {
		pool := e.shards[0].pool
		want := e.net.Forward(e.input, &nn.Context{Subnet: s, Scratch: pool})
		ok := tensor.Equal(out, want, 1e-9)
		pool.Put(want)
		if !ok {
			panic(fmt.Sprintf("infer: incremental output diverged from full forward at subnet %d", s))
		}
	}
	return out, stepMACs, nil
}

// shardMinMACs is the fan-out floor: a step is sharded only if every
// shard gets this many MACs. Under the polling hand-off sharding wins
// wall-clock time at every batch; what the floor buys is CPU. On the
// reference box (2 vCPUs, avx2), the benchmark's LeNet-3C1L walked to
// the top rung by 2 workers against 1, floor 0, walks back to back
// (medians of 15 × 400, 7 runs) and 1 ms apart (5 × 200, 2 runs):
//
//	batch  MACs/shard/step  µs per walk        CPU       CPU, 1 ms apart
//	2       62–111 k         67–73  →  41–62   +6…+40 %  +118…+120 %
//	4      124–223 k        133–145 →  76–93   +4…+21 %   +62…+70 %
//	8      248–446 k        263–279 → 141–167  +2…+15 %   +36…+37 %
//
// The worker's poll after a walk is a fixed ≈100 µs, more than a batch
// of 2 costs. The floor lies between the model's one-image and
// two-image steps, so no walk of it straddles it: at 2¹⁷ batch 4
// shards its last step only, its worker has parked during the three
// serial steps before, and the walk took 177–200 µs against 133–148
// serial at 2.3 × the CPU. VGG-16 at 32×32 (1–10 M per shard) shards.
// More workers than the floor allows shrink the fan-out rather than
// cancel it: on 4 or 8 workers the LeNet's batch 8 runs 4 shards of 2.
const shardMinMACs = 118_000

// workers decides the step's fan-out: the Workers cap, at most one
// worker per image — a single image is always walked serially — and
// no more than leave every shard the floor's worth of images.
func (e *Engine) workers(j shardJob) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w = min(w, j.b1); w > 1 && e.minShardMACs > 0 {
		var macs int64
		for i := range e.stages {
			macs += e.stages[i].macs(j)
		}
		perShard := (e.minShardMACs + macs - 1) / max(macs, 1) // images
		w = min(w, int(int64(j.b1)/max(perShard, 1)))
	}
	return max(w, 1)
}

// runShard walks the job's rows through every stage of the plan and
// returns the per-image MACs executed (identical across shards).
func (e *Engine) runShard(j shardJob) int64 {
	sh := e.shards[j.wi]
	timed := j.wi == 0 && e.StageTimer != nil
	var macs int64
	var t0 time.Time
	in := e.input
	for i := range e.stages {
		st := &e.stages[i]
		if timed {
			t0 = time.Now()
		}
		if st.kind == stageGeneric {
			macs += st.stepGeneric(sh, in, j)
		} else {
			macs += st.stepNative(sh.z, in.Data(), j)
		}
		if timed {
			e.StageTimer(i, j.s, time.Since(t0))
		}
		in = &st.out
	}
	return macs
}

// stepParallel shards the batch into w contiguous row ranges and
// walks each through the whole plan on its own worker, every shard
// writing its rows of the shared stage buffers in place. Workers
// 1..w-1 are persistent goroutines fed through their mailboxes; the
// calling goroutine always walks shard 0 itself. Polling is only for a
// step with a core per shard: with fewer, a poller would hold the core
// the shard it polls for needs.
func (e *Engine) stepParallel(j shardJob, w int) int64 {
	e.ensureShards(w)
	// Mark the shard workers' cores busy in the global parallelism
	// budget (best-effort — w itself is never reduced, so explicit
	// Workers settings keep their meaning): kernel calls inside generic
	// stages then find the allowance spent and stay serial instead of
	// fanning the arena out on top of an already-saturated worker set.
	claimed := tensor.ClaimParallelHelpers(w - 1)
	defer tensor.ReleaseParallelHelpers(claimed)

	j.poll = w <= min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	batch := j.b1
	e.wg.Add(w - 1)
	e.pending.Add(int32(w - 1))
	for wi := 1; wi < w; wi++ {
		j.wi, j.b0, j.b1 = wi, wi*batch/w, (wi+1)*batch/w
		mb := e.mail[wi-1]
		mb.job = j
		if mb.state.Swap(mailPosted) == mailParked {
			mb.wake <- struct{}{}
		}
	}
	j.wi, j.b0, j.b1 = 0, 0, batch/w
	macs := e.runShard(j)
	if !j.poll || !poll(func() bool { return e.pending.Load() == 0 }) {
		e.wg.Wait()
	}
	return macs
}

// poll reports whether done came true within the poll budget, reading
// the clock every 64 tries.
func poll(done func() bool) bool {
	deadline := time.Now().Add(pollBudget)
	for i := 1; !done(); i++ {
		if i%64 == 0 && time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// shardWorker is the body of one persistent worker goroutine: run the
// jobs posted to mb until Close closes mb.wake. After a job that says
// so it polls for the next one before it parks. It signals the WaitGroup
// before the count a polling caller reads, so a caller that saw the
// count reach zero finds the WaitGroup at zero too.
func (e *Engine) shardWorker(mb *mailbox) {
	defer e.workerWG.Done()
	spin := false
	for {
		if spin {
			mb.polls++
			spin = poll(func() bool { return mb.state.Load() == mailPosted })
		}
		if !spin && mb.state.CompareAndSwap(mailIdle, mailParked) {
			if _, ok := <-mb.wake; !ok {
				return
			}
		}
		j := mb.job
		mb.state.Store(mailIdle)
		e.runShard(j)
		spin = j.poll
		e.wg.Done()
		e.pending.Add(-1)
	}
}

// ensureShards grows the per-worker scratch to w workers and spawns
// any missing persistent workers. Steady-state calls do nothing.
func (e *Engine) ensureShards(w int) {
	for len(e.shards) < w {
		e.shards = append(e.shards, &shard{pool: tensor.NewPool(), z: make([]float64, e.zLen)})
	}
	for len(e.mail) < w-1 { // worker 0 is the calling goroutine
		mb := &mailbox{wake: make(chan struct{}, 1)}
		e.mail = append(e.mail, mb)
		e.workerWG.Add(1)
		go e.shardWorker(mb)
	}
}

// Close releases the engine's persistent shard workers and returns
// once they have all exited (so goroutine-leak checks observe a clean
// count deterministically); a worker still polling exits when its poll
// runs out. It is only needed for engines that sharded a batch
// (serial-only engines spawn none) and the engine remains usable
// afterwards — the next sharded Step simply respawns workers.
func (e *Engine) Close() {
	for _, mb := range e.mail {
		close(mb.wake)
	}
	e.mail = nil
	e.workerWG.Wait()
}

// CalibrateSteps measures the wall-clock cost of each ladder step
// 1..n on input x: the engine is Reset and walked 1→2→…→n reps times,
// and the fastest observed duration of each step is returned (index
// s-1). Min-of-reps is the noise-robust statistic on a shared box —
// scheduling hiccups only ever add time. The measured numbers are the
// calibration a deadline-aware serving layer plans against
// (governor.LatencyModel, internal/serve); callers should calibrate
// with the batch shape they will serve, since step cost scales with
// rows. The engine is left Reset to x at subnet n; reps < 1 is
// treated as 1.
func (e *Engine) CalibrateSteps(x *tensor.Tensor, n, reps int) ([]time.Duration, error) {
	if n < 1 {
		return nil, fmt.Errorf("infer: calibrate needs ≥1 subnets, got %d", n)
	}
	if reps < 1 {
		reps = 1
	}
	best := make([]time.Duration, n)
	for rep := 0; rep < reps; rep++ {
		e.Reset(x)
		for s := 1; s <= n; s++ {
			start := time.Now()
			if _, _, err := e.Step(s); err != nil {
				return nil, err
			}
			if d := time.Since(start); rep == 0 || d < best[s-1] {
				best[s-1] = d
			}
		}
	}
	// A sub-resolution measurement would break feasibility planning
	// (a zero-cost step always "fits"); clamp to the clock's floor.
	for i, d := range best {
		if d <= 0 {
			best[i] = time.Nanosecond
		}
	}
	return best, nil
}

// MustStep is Step for code paths where the engine is known to be
// initialized (examples, benchmarks).
func (e *Engine) MustStep(s int) (*tensor.Tensor, int64) {
	out, macs, err := e.Step(s)
	if err != nil {
		panic(err)
	}
	return out, macs
}
