package steppingnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"steppingnet/internal/baselines"
	"steppingnet/internal/baselines/anywidth"
	"steppingnet/internal/baselines/slimmable"
	"steppingnet/internal/core"
	"steppingnet/internal/data"
	"steppingnet/internal/experiments"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/tensor"
)

// The per-table/figure benchmarks run the same harness as cmd/
// stepbench at the Tiny scale, so `go test -bench=.` regenerates
// every experiment quickly; use `stepbench -exp all -scale full` for
// the full-scale numbers.

// BenchmarkTableI regenerates Table I (per-subnet accuracy and MAC
// share for LeNet-3C1L, LeNet-5 and VGG-16).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("incomplete Table I")
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (SteppingNet vs the slimmable and
// any-width baselines at matched MAC levels).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		if _, comparisons := res.WinsAtMatchedMACs(); comparisons == 0 {
			b.Fatal("no comparisons made")
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7 (expansion-ratio sweep).
func BenchmarkFig7(b *testing.B) {
	sc := experiments.Tiny()
	sc.Expansions = []float64{1.0, 1.5, 2.0}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Nets) != 2 {
			b.Fatal("incomplete Fig. 7")
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8 (ablation of learning-rate
// suppression and knowledge distillation).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Nets) != 2 {
			b.Fatal("incomplete Fig. 8")
		}
	}
}

// BenchmarkReuse regenerates the computational-reuse audit backing
// the §II/§III claims (incremental expansion costs only the MAC
// delta, outputs bit-identical).
func BenchmarkReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Reuse(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified() {
			b.Fatal("reuse audit failed")
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkConstructionLoop isolates the cost of the Fig. 3
// construction work flow (no teacher, no distillation).
func BenchmarkConstructionLoop(b *testing.B) {
	train, _, err := data.Generate(data.Config{
		Name: "bench", Classes: 4, C: 1, H: 8, W: 8, Train: 128, Test: 32, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Subnets: 3, Budgets: []float64{0.15, 0.45, 0.85},
		Iterations: 8, BatchesPerIter: 1, BatchSize: 16, Seed: 5,
	}
	mo := models.Options{Classes: 4, InC: 1, InH: 8, InW: 8, Subnets: 3, Rule: nn.RuleIncremental, Seed: 7}
	refOpts := mo
	refOpts.Subnets = 1
	ref := models.ReferenceMACs(models.LeNet3C1L, refOpts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo2 := mo
		mo2.Expansion = 1.5
		m := models.LeNet3C1L(mo2)
		if _, err := core.Construct(m, train, cfg, ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineSlimmable and BenchmarkBaselineAnyWidth time one
// baseline train+evaluate cycle each.
func BenchmarkBaselineSlimmable(b *testing.B) {
	dcfg := data.Config{Name: "bench", Classes: 4, C: 1, H: 8, W: 8, Train: 96, Test: 48, Seed: 3}
	cfg := baselines.Config{Subnets: 3, Budgets: []float64{0.2, 0.5, 0.9}, Epochs: 1, BatchSize: 16, Seed: 4}
	for i := 0; i < b.N; i++ {
		if _, err := slimmable.Run(models.LeNet3C1L, dcfg, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineAnyWidth(b *testing.B) {
	dcfg := data.Config{Name: "bench", Classes: 4, C: 1, H: 8, W: 8, Train: 96, Test: 48, Seed: 3}
	cfg := baselines.Config{Subnets: 3, Budgets: []float64{0.2, 0.5, 0.9}, Epochs: 1, BatchSize: 16, Seed: 4}
	for i := 0; i < b.N; i++ {
		if _, err := anywidth.Run(models.LeNet3C1L, dcfg, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate microbenchmarks (hot paths) ---

func BenchmarkMatMul64(b *testing.B) {
	r := tensor.NewRNG(1)
	x := tensor.New(64, 64)
	y := tensor.New(64, 64)
	x.FillNormal(r, 0, 1)
	y.FillNormal(r, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// BenchmarkMatMul64Into is the allocation-free kernel on its own,
// without the output-tensor allocation MatMul performs.
func BenchmarkMatMul64Into(b *testing.B) {
	r := tensor.NewRNG(1)
	x := tensor.New(64, 64)
	y := tensor.New(64, 64)
	c := tensor.New(64, 64)
	x.FillNormal(r, 0, 1)
	y.FillNormal(r, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(c, x, y, false)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
	img := make([]float64, g.InC*g.InH*g.InW)
	col := make([]float64, g.ColRows()*g.ColCols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Im2Col(img, col)
	}
}

func benchNet() (*nn.Network, *tensor.Tensor) {
	r := tensor.NewRNG(2)
	m := models.LeNet3C1L(models.Options{
		Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
		Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
	})
	x := tensor.New(8, 3, 16, 16)
	x.FillNormal(r, 0, 1)
	return m.Net, x
}

func BenchmarkForwardLeNet3C1L(b *testing.B) {
	net, x := benchNet()
	// Steady-state inference: a per-goroutine scratch pool recycles
	// every activation, so after warm-up the forward path allocates
	// nothing (asserted by TestPooledForwardSteadyStateAllocs).
	ctx := nn.Eval(4)
	ctx.Scratch = tensor.NewPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.Forward(x, ctx)
		ctx.Scratch.Put(out)
	}
}

// BenchmarkForwardLeNet3C1LNoPool is the same forward without a
// scratch pool — the allocation overhead the pool removes.
func BenchmarkForwardLeNet3C1LNoPool(b *testing.B) {
	net, x := benchNet()
	ctx := nn.Eval(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, ctx)
	}
}

// BenchmarkForwardLeNetB1 is the batch-1 forward — the latency a
// single request pays per decision — reported per worker count: the
// sub-benchmarks vary GOMAXPROCS, which bounds the tensor arena's
// intra-op fan-out (im2col row sharding, sub-threshold GEMM row
// splits, the batch-1 dense column split). On a single-CPU box every
// worker count degrades to the same serial path; with real cores the
// spread shows the intra-layer scaling the ROADMAP's batch-1 item
// targets.
func BenchmarkForwardLeNetB1(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			net, _ := benchNet()
			x := tensor.New(1, 3, 16, 16)
			x.FillNormal(tensor.NewRNG(4), 0, 1)
			ctx := nn.Eval(4)
			ctx.Scratch = tensor.NewPool()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Scratch.Put(net.Forward(x, ctx))
			}
		})
	}
}

// BenchmarkAnytimeWalkB1 is the engine-level twin: a batch-1 ladder
// walk per worker count. A lone image is walked serially whatever
// Workers and GOMAXPROCS say, so the sub-benchmarks must agree — more
// workers may never be slower than fewer.
func BenchmarkAnytimeWalkB1(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			net, _ := benchNet()
			x := tensor.New(1, 3, 16, 16)
			x.FillNormal(tensor.NewRNG(4), 0, 1)
			e := infer.NewEngine(net)
			e.Workers = w
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset(x)
				for s := 1; s <= 4; s++ {
					e.MustStep(s)
				}
			}
		})
	}
}

func BenchmarkForwardBackwardLeNet3C1L(b *testing.B) {
	net, x := benchNet()
	ctx := &nn.Context{Subnet: 4, Train: true, Scratch: tensor.NewPool()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.Forward(x, ctx)
		grad := ctx.Scratch.GetUninit(out.Shape()...)
		grad.Fill(0.01)
		ctx.Scratch.Put(net.Backward(grad, ctx))
		ctx.Scratch.Put(grad)
		net.ZeroGrad()
	}
}

// BenchmarkServeB1Deadline measures single-request serving latency
// through the full internal/serve path (admission, deadline
// scheduling, ladder walk, answer channel) — the test-suite twin of
// the serve_b1_deadline entry in BENCH_baseline.json.
func BenchmarkServeB1Deadline(b *testing.B) {
	m := models.LeNet3C1L(models.Options{
		Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
		Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
	})
	r := tensor.NewRNG(9)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(4))
		}
	}
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 4, Workers: 1,
		DefaultDeadline: time.Second, CalibrationReps: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	in := tensor.New(3 * 16 * 16)
	in.FillNormal(tensor.NewRNG(4), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Submit(serve.Request{Input: in.Data()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalStep measures the anytime engine's per-step
// cost relative to the full forward above.
func BenchmarkIncrementalStep(b *testing.B) {
	net, x := benchNet()
	// Spread units over 4 subnets.
	r := tensor.NewRNG(9)
	for _, l := range net.Layers() {
		if m, ok := l.(nn.Masked); ok && m.Rule() == nn.RuleIncremental {
			a := m.OutAssignment()
			for u := 0; u < a.Units(); u++ {
				a.SetID(u, 1+r.Intn(4))
			}
			a.SetID(0, 1)
		}
	}
	e := infer.NewEngine(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(x)
		for s := 1; s <= 4; s++ {
			e.MustStep(s)
		}
	}
}
