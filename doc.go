// Package steppingnet is a pure-Go reproduction of "SteppingNet: A
// Stepping Neural Network with Incremental Accuracy Enhancement"
// (Sun et al., DATE 2023). It builds a series of nested subnets out
// of one weight-shared network such that each subnet obeys a MAC
// budget and every larger subnet reuses the smaller subnets'
// intermediate results, enabling anytime inference on
// resource-constrained and resource-varying platforms.
//
// The implementation lives under internal/: the tensor and layer
// substrate (internal/tensor, internal/nn), subnet bookkeeping
// (internal/subnet), the construction and distillation algorithms
// (internal/core), the anytime engine (internal/infer), the budget
// policy and deadline→MAC mapping (internal/governor), the concurrent
// serving layer (internal/serve), the slimmable and any-width
// baselines (internal/baselines/...), and the harness that
// regenerates the paper's tables and figures (internal/experiments).
// Entry points are cmd/steppingnet, cmd/stepbench, cmd/stepserve and
// the programs under examples/. README.md is the user-facing tour;
// ARCHITECTURE.md holds the package map, the pool-ownership and
// width-invariance contracts, and the serving request lifecycle.
//
// # Compute substrate
//
// All MACs funnel through three raw-slice kernels in internal/tensor
// (Gemm, GemmTransA, GemmTransB): register-tiled 2×4 micro-kernels
// that skip all-zero panels of masked weight matrices, fanned out
// over a persistent, allocation-free worker arena (internal/tensor/
// parallel.go) — rows for multi-row products, columns for the
// batch-1 dense shape, plus a sharded im2col gather — with splits
// aligned so parallel results stay bitwise identical to serial at
// any worker count (tiny shapes stay serial; see gemmMinParFlops and
// gemmMinParColFlops). A single GOMAXPROCS-1 helper budget is shared
// with the inference engine's image sharding, so stacked parallelism
// degrades to serial instead of oversubscribing. In training and in
// the per-layer reference path, convolution is im2col plus one
// compact matmul per image over a transposed gather of the subnet's
// active filters, so a small subnet pays only for its own width.
//
// Inference does not go layer by layer. infer.NewEngine compiles the
// ladder once into a step plan (internal/infer/plan.go): fused stages
// (conv+ReLU+max-pool, dense+ReLU, the recomputed head, and a generic
// stage for any other layer) over engine-owned persistent buffers,
// with one pre-packed weight panel per stage and rung whose K
// dimension is ordered so the inputs a rung may read form a prefix.
// A rung step extends each conv's gather by the newly activated input
// channels (shifted copies of their planes, which the patch matrix's
// rows are windows of), multiplies the rung's panel over its K-prefix
// in one tensor.RungGemm call that stores finished activations, and
// pools the new planes only — so reuse pays in time, not only in
// MACs: the batch-1 four-rung walk costs less than one from-scratch
// forward of the widest subnet (gated by `stepbench -compare`). A
// lone image is always walked serially; batches shard by image when a
// step is big enough to repay the hand-off. Every unit is computed by
// one fixed chain of float operations, so cold, resumed, batched and
// sharded walks agree bitwise.
//
// The kernels come in two backends behind a dispatch layer
// (internal/tensor/gemm_dispatch.go). On amd64, AVX2+FMA assembly
// micro-kernels (gemm_amd64.s) are selected at startup when CPUID
// reports FMA+AVX+AVX2 and the OS saves YMM state; everything else —
// other architectures, builds with the purego tag, CPUs without the
// features, or any process started with STEPPINGNET_NOSIMD set —
// runs the portable scalar kernels. Both backends share the scalar
// edge handling and the zero-panel skip, and are cross-checked
// against each other and a naive reference to 1e-12 in CI (which
// runs the suite under both). BENCH_baseline.json records which
// backend produced it in its "backend" field.
//
// Hot paths are allocation-free in the steady state: a tensor.Pool
// (per goroutine, nil-safe) recycles every activation and temporary.
// nn.Context.Scratch threads the pool through Forward/Backward — see
// its comment for the ownership rules — and infer.Engine owns its
// stage buffers and persistent shard workers outright, so the anytime
// walk performs zero allocations per Step on both its serial and
// sharded paths.
// BENCH_baseline.json records the substrate's reference numbers
// (regenerate with ./ci.sh or `go run ./cmd/stepbench -bench`;
// compare two baselines with `stepbench -compare old.json new.json`).
//
// # Serving
//
// internal/serve turns the anytime engine into a concurrent service:
// a pool of per-worker engines fed by a central batch former over a
// bounded, priority-ordered admission queue (low classes narrow and
// shed first; high-priority deadlines stay protected under
// overload). Per-subnet step latencies are calibrated at startup
// (infer.Engine.CalibrateSteps → governor.LatencyModel), refreshed
// against live step timings by a background loop (Engine.StepTimer →
// atomic governor.ModelRef swap), and a deadline-aware scheduler
// walks each request up the subnet ladder only as far as its
// deadline — and its class's load-shedding cap — allows, so overload
// degrades into narrower answers instead of unbounded queuing.
// cmd/stepserve exposes the service over HTTP (POST /infer with a
// priority field/header, GET /stats with per-class counters) and
// ships a load generator (stepserve -loadgen) for measuring latency
// percentiles and the per-subnet answer distribution under
// configurable RPS/deadline/priority mixes.
//
// The benchmarks in bench_test.go regenerate each table/figure:
//
//	go test -bench=. -benchmem
package steppingnet
