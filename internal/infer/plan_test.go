package infer

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/subnet"
	"steppingnet/internal/tensor"
)

// intraGridModel builds one model of the odd-shape property grid:
// input sizes that do and do not survive the pooling stages, channel
// counts and expansions that produce odd filter counts (unroll
// remainders in every kernel), and per-seed random assignments.
func intraGridModel(seed uint64, inC, inH int, expansion float64) *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 5, InC: inC, InH: inH, InW: inH, Expansion: expansion,
		Subnets: 3, Rule: nn.RuleIncremental, Seed: seed,
	})
	spreadUnits(m, seed^0x17A7, 3)
	return m
}

// spreadUnits assigns every movable unit a random rung in 1..n,
// keeping unit 0 of each layer in rung 1 so every subnet has signal.
func spreadUnits(m *models.Model, seed uint64, n int) {
	r := tensor.NewRNG(seed)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for i := 0; i < a.Units(); i++ {
			a.SetID(i, 1+r.Intn(n))
		}
		a.SetID(0, 1)
	}
}

// stridedModel has the two conv geometries no topology in
// internal/models has, one per layout of the gather's offset table: a
// stride-2 convolution (a gather row per tap, and an input the stride
// does not divide) feeding an unpadded 5×5 one whose output is narrower
// than its input (shifted planes filled row by row), pooled to 1×1
// before the shared head. Biases are non-zero.
func stridedModel(seed uint64, n int) *models.Model {
	rng := tensor.NewRNG(seed)
	in, a1, a2 := subnet.NewAssignment(2, n), subnet.NewAssignment(5, n), subnet.NewAssignment(7, n)
	conv1 := nn.NewConv2D(nn.Conv2DConfig{
		Name: "conv1", Geom: tensor.ConvGeom{InC: 2, InH: 12, InW: 12, OutC: 5, K: 3, Stride: 2, Pad: 1},
		Rule: nn.RuleIncremental, AssignIn: in, Assign: a1, Init: rng,
	})
	conv2 := nn.NewConv2D(nn.Conv2DConfig{
		Name: "conv2", Geom: tensor.ConvGeom{InC: 5, InH: 6, InW: 6, OutC: 7, K: 5, Stride: 1},
		Rule: nn.RuleIncremental, AssignIn: a1, Assign: a2, Init: rng,
	})
	head := nn.NewDense(nn.DenseConfig{
		Name: "head", In: 7, Out: 5, Rule: nn.RuleShared,
		AssignIn: a2, Assign: subnet.NewAssignment(5, n), Init: rng,
	})
	net := nn.NewNetwork("strided")
	for _, l := range []nn.Layer{
		conv1, nn.NewReLU("relu1"), conv2, nn.NewReLU("relu2"),
		nn.NewMaxPool2D("pool2", 7, 2, 2, 2), nn.NewFlatten("flatten"), head,
	} {
		net.Append(l)
		for _, p := range l.Params()[min(1, len(l.Params())):] {
			p.Value.FillNormal(rng, 0, 0.3)
		}
	}
	return &models.Model{
		Net: net, Movable: []nn.Masked{conv1, conv2}, Head: head,
		Name: "strided", InC: 2, InH: 12, InW: 12, Classes: 5,
	}
}

// gridCase is one model of the plan's property grid.
type gridCase struct {
	name string
	m    *models.Model
	n    int
}

// planGrid is the property grid every engine contract is checked
// over: the odd-shape LeNets, the assignments and masks that bend the
// plan's bookkeeping (a rung that adds nothing to a layer, a layer
// wholly in rung 1, pruned weights), every topology in
// internal/models, the networks that run through generic stages
// (RuleShared backbones, BatchNorm), and the conv geometries the
// models lack (stridedModel).
func planGrid(seed uint64) []gridCase {
	opts := func(n int, rule nn.MaskRule, bn bool) models.Options {
		return models.Options{
			Classes: 5, InC: 2, InH: 8, InW: 8, Expansion: 1.3,
			Subnets: n, Rule: rule, BatchNorm: bn, Seed: seed,
		}
	}
	spread := func(m *models.Model, n int) *models.Model {
		spreadUnits(m, seed^0x5EED, n)
		return m
	}
	grid := []gridCase{
		{"odd-1x8", intraGridModel(seed, 1, 8, 1.0), 3},
		{"odd-3x9", intraGridModel(seed+1, 3, 9, 1.3), 3},   // odd input: pooling stages skip, odd conv rows
		{"odd-2x12", intraGridModel(seed+2, 2, 12, 1.7), 3}, // odd filter counts from the expansion
	}

	// conv1 wholly in rung 1; conv2 has no unit in rung 2; conv3 none in
	// rung 3 — steps that add nothing to a layer, gathers that skip a rung.
	gap := models.LeNet3C1L(opts(3, nn.RuleIncremental, false))
	for li, skip := range []int{0, 2, 3} {
		a := gap.Movable[li].OutAssignment()
		for u := 1; u < a.Units(); u++ {
			if id := 1 + u%3; skip != 0 && id != skip {
				a.SetID(u, id)
			}
		}
	}
	grid = append(grid, gridCase{"rung-gaps", gap, 3})

	pruned := spread(models.LeNet5(opts(3, nn.RuleIncremental, false)), 3)
	for _, mv := range pruned.Movable {
		mv.PruneBelow(0.08)
	}
	pruned.Head.PruneBelow(0.05)
	grid = append(grid, gridCase{"pruned-lenet5", pruned, 3})

	vgg := models.VGG16(models.Options{
		Classes: 5, InC: 3, InH: 16, InW: 16, Expansion: 0.5,
		Subnets: 4, Rule: nn.RuleIncremental, Seed: seed,
	})
	grid = append(grid,
		gridCase{"lenet5-n4", spread(models.LeNet5(opts(4, nn.RuleIncremental, false)), 4), 4},
		gridCase{"vgg16", spread(vgg, 4), 4},
		gridCase{"shared-backbone", spread(models.LeNet5(opts(3, nn.RuleShared, false)), 3), 3},
		gridCase{"shared-batchnorm", spread(models.LeNet3C1L(opts(3, nn.RuleShared, true)), 3), 3},
		gridCase{"incremental-batchnorm", spread(models.LeNet3C1L(opts(3, nn.RuleIncremental, true)), 3), 3},
		gridCase{"strided-unpadded", spread(stridedModel(seed, 3), 3), 3},
	)
	return grid
}

// gridInput draws a batch of standard-normal images for the model.
func gridInput(m *models.Model, batch int, seed uint64) *tensor.Tensor {
	x := tensor.New(batch, m.InC, m.InH, m.InW)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x
}

// gridWalk covers first step, step up, step down, a direct jump to the
// top, re-step and a climb after a step down.
func gridWalk(n int) []int {
	walk := []int{}
	for s := 1; s <= n; s++ {
		walk = append(walk, s)
	}
	return append(walk, 1, n, 2, 2, n)
}

// wantStepMACs is the paper's claim as arithmetic: a step from subnet
// cur to s executes exactly the MACs of the units s adds — the subnet
// delta of every incremental layer — plus every recompute-per-subnet
// layer (the head, RuleShared backbones) at s.
func wantStepMACs(m *models.Model, cur, s int) int64 {
	var macs int64
	for _, l := range m.Net.MaskedLayers() {
		switch {
		case l.Rule() == nn.RuleShared:
			macs += l.MACs(s)
		case s > cur:
			macs += l.MACs(s) - l.MACs(cur)
		}
	}
	return macs
}

// TestImageShardingMatchesSerial is the engine's equivalence gate over
// the plan grid, at batches of 1, 5 and 8 and every worker count in
// {1, 2, 4, GOMAXPROCS}, on whichever GEMM backend is active (ci.sh
// runs it under both). Along a walk of ups, downs, a direct jump and
// re-steps it checks that
//   - the serial engine's output equals Network.Forward within 1e-9
//     and each step's MACs equal the subnet delta exactly;
//   - every sharded engine is BITWISE equal to the serial one (a lone
//     image is serial by construction, whatever Workers says);
//   - row 0 of a batch is bitwise the batch-1 walk of that image;
//   - a direct Step(n) is bitwise the stepwise climb.
//
// Run under -race it also exercises the shards' disjoint writes into
// the shared stage buffers.
func TestImageShardingMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	workerCounts := []int{2, 4, 0}
	for gi, gc := range planGrid(31) {
		var lone [][]float64 // the batch-1 walk's outputs, step by step
		for _, batch := range []int{1, 5, 8} {
			t.Run(fmt.Sprintf("%s/batch%d", gc.name, batch), func(t *testing.T) {
				x := gridInput(gc.m, batch, uint64(97+gi))
				serial := NewEngine(gc.m.Net)
				serial.Workers = 1
				serial.Reset(x)
				engines := make([]*Engine, len(workerCounts))
				for i, w := range workerCounts {
					engines[i] = NewEngine(gc.m.Net)
					engines[i].Workers, engines[i].minShardMACs = w, 0 // the grid's steps are all under the fan-out floor
					defer engines[i].Close()
					engines[i].Reset(x)
				}
				cur := 0
				var top []float64
				for step, s := range gridWalk(gc.n) {
					out, macs, err := serial.Step(s)
					if err != nil {
						t.Fatal(err)
					}
					if want := gc.m.Net.Forward(x, nn.Eval(s)); !tensor.Equal(out, want, 1e-9) {
						t.Fatalf("step %d→%d: output differs from Network.Forward", step, s)
					}
					if want := wantStepMACs(gc.m, min(cur, s), s); macs != want {
						t.Fatalf("step %d: %d→%d executed %d MACs, subnet delta is %d", step, cur, s, macs, want)
					}
					cur = s
					rowLen := out.Len() / batch
					if batch == 1 {
						lone = append(lone, append([]float64(nil), out.Data()...))
					} else if !slices.Equal(out.Data()[:rowLen], lone[step]) {
						t.Fatalf("step %d→%d: row 0 of the batch differs from its batch-1 walk", step, s)
					}
					if s == gc.n {
						if top != nil && !slices.Equal(out.Data(), top) {
							t.Fatalf("step %d→%d: the top rung depends on the path taken to it", step, s)
						}
						top = append([]float64(nil), out.Data()...)
					}
					for i, w := range workerCounts {
						got, gotMACs, err := engines[i].Step(s)
						if err != nil {
							t.Fatal(err)
						}
						if gotMACs != macs {
							t.Fatalf("step %d→%d workers=%d: %d MACs, serial %d", step, s, w, gotMACs, macs)
						}
						if !slices.Equal(got.Data(), out.Data()) {
							t.Fatalf("step %d→%d workers=%d: output rounds differently from serial", step, s, w)
						}
					}
				}
				direct := NewEngine(gc.m.Net)
				direct.Workers = 1
				direct.Reset(x)
				if out, _ := direct.MustStep(gc.n); !slices.Equal(out.Data(), top) {
					t.Fatal("direct Step(n) differs from the stepwise climb")
				}
				for i := range engines {
					if engines[i].TotalMACs() != serial.TotalMACs() {
						t.Fatalf("workers=%d: total MACs %d, serial %d", workerCounts[i], engines[i].TotalMACs(), serial.TotalMACs())
					}
				}
			})
		}
	}
}

// TestShardWorkersReleased pins the lifecycle of the image-shard
// workers: Close returns only after every persistent worker has
// exited, so repeated create/shard/Close cycles hold the process
// goroutine count steady.
func TestShardWorkersReleased(t *testing.T) {
	m := intraGridModel(81, 1, 8, 1.2)
	x := gridInput(m, 4, 82)

	cycle := func() {
		e := NewEngine(m.Net)
		e.Workers, e.minShardMACs = 4, 0
		e.Reset(x)
		for s := 1; s <= 3; s++ {
			e.MustStep(s)
		}
		e.Close()
	}
	cycle() // first cycle settles one-time goroutines (tensor arena workers)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cycle()
	}
	// Exited workers leave the count a moment after Close returns (and,
	// shuffled, an earlier test's may still be leaving): let it settle.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("shard workers leaked across Close cycles: %d goroutines before, %d after", before, after)
	}
}

// servedLeNet is the LeNet-3C1L the benchmark serves: its options, and
// every unit but the first of each layer on a random rung.
func servedLeNet() *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.6,
		Subnets: 4, Rule: nn.RuleIncremental, Seed: 1,
	})
	r := tensor.NewRNG(1 ^ 0x5EED5)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(4))
		}
	}
	return m
}

// TestSmallStepsStaySerial pins the fan-out floor, step by step up the
// ladder: the benchmark's LeNet at batch 2 is walked on the calling
// goroutine whatever Workers allows, at batches 4 and 8 every step
// shards (no walk straddles the floor), and so does VGG-16 at 32×32.
// Workers beyond what the floor allows shrink the fan-out to shards of
// two LeNet images; they never send the batch back to serial.
func TestSmallStepsStaySerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	lenet := servedLeNet()
	vgg := models.VGG16(models.Options{
		Classes: 5, InC: 3, InH: 32, InW: 32, Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
	})
	spreadUnits(vgg, 9, 4)
	for _, tc := range []struct {
		m              *models.Model
		workers, batch int
		want           int // the fan-out of every step
	}{
		{lenet, 2, 2, 1}, {lenet, 8, 2, 1},
		{lenet, 2, 4, 2}, {lenet, 4, 4, 2},
		{lenet, 2, 8, 2}, {lenet, 4, 8, 4}, {lenet, 8, 8, 4},
		{vgg, 2, 8, 2},
	} {
		e := NewEngine(tc.m.Net)
		e.Workers = tc.workers
		defer e.Close()
		e.Reset(gridInput(tc.m, tc.batch, 5))
		for s := 1; s <= 4; s++ {
			j := shardJob{b1: tc.batch, sPrev: s - 1, s: s, top: s - 1}
			if w := e.workers(j); w != tc.want {
				t.Fatalf("%s Workers=%d batch %d, step %d→%d: fan-out %d, want %d", tc.m.Name, tc.workers, tc.batch, s-1, s, w, tc.want)
			}
			e.MustStep(s)
		}
		if spawned := len(e.mail); spawned != tc.want-1 {
			t.Fatalf("%s Workers=%d batch %d: %d workers spawned, want %d", tc.m.Name, tc.workers, tc.batch, spawned, tc.want-1)
		}
	}
}

// TestResetMatchesFreshEngine pins Reset's clear of the kept
// activations. An engine that walked input A to the top rung and is
// Reset to B — at the same batch, then at a smaller one — walks B
// bitwise as a fresh engine does, every stage buffer of
// every row compared, serially and sharded. Reset and then seeded by
// ImportState, it climbs bitwise as a cold walk of the imported image.
func TestResetMatchesFreshEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sameBuffers := func(a, b *Engine) bool {
		for i := range a.stages {
			if !slices.Equal(a.stages[i].out.Data(), b.stages[i].out.Data()) {
				return false
			}
		}
		return true
	}
	for gi, gc := range planGrid(41) {
		n := gc.n
		for _, w := range []int{1, 2} {
			used := NewEngine(gc.m.Net)
			used.Workers, used.minShardMACs = w, 0
			defer used.Close()
			used.Reset(gridInput(gc.m, 8, uint64(300+gi)))
			used.MustStep(n)
			for _, batch := range []int{8, 3} {
				x := gridInput(gc.m, batch, uint64(400+gi+batch))
				used.Reset(x)
				fresh := NewEngine(gc.m.Net)
				fresh.Workers = 1
				fresh.Reset(x)
				for step, s := range gridWalk(n) {
					used.MustStep(s)
					fresh.MustStep(s)
					if !sameBuffers(used, fresh) {
						t.Fatalf("%s workers=%d batch %d, step %d→%d: the reused engine's buffers differ from a fresh one's", gc.name, w, batch, step, s)
					}
				}
			}

			x1 := gridInput(gc.m, 1, uint64(500+gi))
			cold := NewEngine(gc.m.Net)
			cold.Workers = 1
			cold.Reset(x1)
			cold.MustStep(1)
			st, err := cold.ExportState(0)
			if err != nil {
				t.Fatal(err)
			}
			used.Reset(gridInput(gc.m, 8, uint64(600+gi)))
			if err := used.ImportState(x1, st); err != nil {
				t.Fatal(err)
			}
			for s := 2; s <= n; s++ {
				used.MustStep(s)
				cold.MustStep(s)
				if !sameBuffers(used, cold) {
					t.Fatalf("%s workers=%d: imported after a Reset, rung %d differs from the cold walk", gc.name, w, s)
				}
			}
		}
	}
}

// TestShardingOnOneProc pins the poll's gate. Under GOMAXPROCS(1) a
// sharded step has no core per shard and must not poll: a poller would
// hold the only P the shard it waits for needs, and every step would
// cost a poll budget on each side. 200 batch-8 walks on two workers
// stay bitwise the serial walk, and the best of three such runs takes
// at most a quarter longer than the best serial run plus half a poll
// budget a step: a poller would add two budgets a step.
func TestShardingOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const walks, n = 200, 3
	m := buildModel(61)
	x := tensor.New(8, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(62), 0, 1)
	serial := NewEngine(m.Net)
	serial.Workers = 1
	serial.Reset(x)
	want := make([][]float64, n+1)
	for s := 1; s <= n; s++ {
		out, _ := serial.MustStep(s)
		want[s] = slices.Clone(out.Data())
	}
	sharded := NewEngine(m.Net)
	sharded.Workers, sharded.minShardMACs = 2, 0
	defer sharded.Close()

	best := func(e *Engine) time.Duration {
		d := time.Duration(1<<63 - 1)
		for range 3 {
			t0 := time.Now()
			for range walks {
				e.Reset(x)
				for s := 1; s <= n; s++ {
					if out, _ := e.MustStep(s); !slices.Equal(out.Data(), want[s]) {
						t.Fatalf("Workers=%d under GOMAXPROCS(1), step %d: output differs from the serial walk", e.Workers, s)
					}
				}
			}
			d = min(d, time.Since(t0))
		}
		return d
	}
	ds, dp := best(serial), best(sharded)
	if len(sharded.mail) == 0 {
		t.Fatal("the batch was never sharded")
	}
	if bound := ds + ds/4 + walks*n*pollBudget/2; dp > bound {
		t.Fatalf("%d sharded walks took %v under GOMAXPROCS(1), serial %v: over the %v bound, as if a poller held the only P", walks, dp, ds, bound)
	}
	t.Logf("%d walks under GOMAXPROCS(1): serial %v, sharded %v", walks, ds, dp)
}

// TestStageTimerAndStages pins the profiling surface: Stages lists the
// fused plan with MAC counts that add up to the steps', and an
// installed StageTimer sees every stage of every step without costing
// the walk its zero-alloc property.
func TestStageTimerAndStages(t *testing.T) {
	m := intraGridModel(91, 2, 8, 1.5)
	x := gridInput(m, 1, 92)
	e := NewEngine(m.Net)
	stages := e.Stages()
	if len(stages) != 4 || stages[0].Kind != "conv" || stages[3].Kind != "head" {
		t.Fatalf("LeNet-3C1L should compile to 3 conv stages and a head, got %+v", stages)
	}
	seen := make([]int, len(stages))
	e.StageTimer = func(stage, subnet int, d time.Duration) { seen[stage]++ }
	e.Reset(x)
	for s := 1; s <= 3; s++ {
		_, macs := e.MustStep(s)
		var sum int64
		for _, st := range stages {
			sum += st.StepMACs[s-1]
		}
		if sum != macs {
			t.Fatalf("step %d executed %d MACs, stages account for %d", s, macs, sum)
		}
	}
	for i, c := range seen {
		if c != 3 {
			t.Fatalf("stage %d timed %d times over 3 steps", i, c)
		}
	}
	walk := func() {
		e.Reset(x)
		for s := 1; s <= 3; s++ {
			e.MustStep(s)
		}
	}
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Fatalf("walk with StageTimer installed allocates %v times per run, want 0", allocs)
	}
}
