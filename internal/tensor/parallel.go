package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the intra-op parallelism substrate: a persistent,
// allocation-free worker arena that the GEMM kernels and the im2col
// gather fan out over, plus the global helper budget that keeps every
// layer of parallelism in the repo (kernel fan-out, the inference
// engine's shard workers) from oversubscribing the cores together.
//
// Two split axes exist, each with its own engagement threshold:
//
//   - row split: output rows are divided into blocks that workers
//     steal off a shared atomic counter. Blocks are always aligned to
//     an even row boundary, so the kernels' two-rows-per-pass
//     structure pairs exactly the same rows as a serial run — which
//     makes the parallel result BITWISE identical to the serial one
//     at every worker count, on both GEMM backends.
//   - column split (A·Bᵀ with a single output row, the batch-1 dense
//     shape): output columns are divided into blocks aligned to the
//     kernels' four-column dot-product tiles, so every element goes
//     through the same tile-vs-tail code path as a serial run —
//     again bitwise identical at every worker count.
//
// The bitwise contract is pinned by TestRowShardBitwiseInvariance /
// TestColumnShardBitwiseInvariance.

// gemmMinParFlops is the multiply-add count (m·k·n) below which a
// row-splittable matmul stays on the current goroutine. The persistent
// arena makes fan-out much cheaper than the old spawn-per-call
// scheduler, so the threshold sits well below the historical 64³: the
// serve-critical LeNet conv shapes (≈70–250 kflop) now fan out. It is
// a variable so the equivalence tests can force both paths.
var gemmMinParFlops = 1 << 16

// gemmMinParColFlops is the column-split threshold (k·n for the
// single-row A·Bᵀ product). Column blocks carry no redundant work at
// all — each worker computes whole dot products — so the bar is lower
// than the row threshold. A variable for the same testing reason.
var gemmMinParColFlops = 1 << 13

// im2colMinParCells is the col-matrix volume (rows × cols) below
// which the im2col gather stays serial: the gather is a pure copy, so
// it only pays for fan-out once the matrix is a few pages big.
var im2colMinParCells = 1 << 12

// rowsPerTask is the row-split granularity for matrices with plenty
// of rows: small enough to balance ragged workloads, large enough
// that the steal counter is not contended. Matrices with few rows
// fall back to two-row blocks — the smallest unit that preserves the
// kernels' row pairing (and therefore bitwise equality with serial).
const rowsPerTask = 8

// colsPerTask is the column-split granularity: one four-wide
// dot-product tile per block, the kernels' natural unit.
const colsPerTask = 4

// im2colRowsPerTask is the gather granularity (no alignment
// requirement — the gather is elementwise — but kept a multiple of
// two for symmetry with the row split that consumes the matrix).
const im2colRowsPerTask = 8

// helperCount tracks busy parallel helpers across ALL concurrent
// users — kernel fan-outs here and the inference engine's image
// shard workers (via ClaimParallelHelpers). Capping the total at
// GOMAXPROCS-1 means a kernel call made from inside an
// already-parallel caller finds the budget spent and simply runs
// serially on its own goroutine instead of oversubscribing the cores.
var helperCount atomic.Int64

// ClaimParallelHelpers claims up to max helper slots from the global
// GOMAXPROCS-1 parallelism budget and returns how many were granted
// (possibly zero). Callers that fan work out across their own worker
// goroutines — the inference engine's image sharding — claim before
// dispatching and release when the fan-in completes, so
// kernel-level and engine-level parallelism share one budget instead
// of multiplying.
func ClaimParallelHelpers(max int) int {
	if max <= 0 {
		return 0
	}
	budget := int64(runtime.GOMAXPROCS(0) - 1)
	claimed := 0
	for claimed < max {
		if helperCount.Add(1) > budget {
			helperCount.Add(-1)
			break
		}
		claimed++
	}
	return claimed
}

// ReleaseParallelHelpers returns n slots claimed with
// ClaimParallelHelpers to the budget.
func ReleaseParallelHelpers(n int) {
	if n > 0 {
		helperCount.Add(int64(-n))
	}
}

// arenaKind selects the operation a stolen block executes. The arena
// deliberately runs a closed set of operations described by plain
// struct fields instead of accepting closures: a closure capturing
// kernel operands would escape to the heap on every call and break
// the zero-allocation contract of the forward and step paths.
type arenaKind int8

const (
	arenaGemmRows arenaKind = iota
	arenaGemmTransARows
	arenaGemmTransBRows
	arenaGemmTransBCols
	arenaIm2Col
)

// arenaJob describes one fanned-out operation. span is the stealable
// index space (output rows, output columns, or im2col rows) and grain
// the block size; all other fields are operands for the kind.
type arenaJob struct {
	kind    arenaKind
	c, a, b []float64
	m, k, n int
	acc     bool
	geom    ConvGeom
	img     []float64
	span    int
	grain   int
}

// arena is the persistent worker set. Workers are spawned lazily (up
// to GOMAXPROCS-1) and then parked on the wake channel forever; one
// fanned-out operation runs at a time (mu), concurrent attempts
// simply run serially on their caller. All state is package-global so
// a fan-out performs no allocation whatsoever.
var arena struct {
	mu      sync.Mutex // held by the caller for the whole operation
	job     arenaJob
	next    atomic.Int64 // block steal cursor
	wake    chan struct{}
	done    chan struct{}
	started int // guarded by mu (spawning happens mid-operation)
}

func init() {
	// Deep buffers so wake/done sends never block regardless of
	// GOMAXPROCS changes mid-process.
	arena.wake = make(chan struct{}, 1024)
	arena.done = make(chan struct{}, 1024)
}

// ensureArenaWorkers spawns missing persistent workers up to n.
// Called with arena.mu held, which serializes all spawning.
func ensureArenaWorkers(n int) {
	for arena.started < n {
		arena.started++
		go arenaWorker()
	}
}

// arenaWorker parks until woken, helps drain the current job's
// blocks, reports done, and parks again. It reads arena.job only
// between a wake receive and its done send, which the caller's
// mu-guarded protocol orders strictly before the next job write.
func arenaWorker() {
	for range arena.wake {
		arenaSteal(&arena.job)
		arena.done <- struct{}{}
	}
}

// arenaSteal claims blocks off the job's cursor until drained.
func arenaSteal(j *arenaJob) {
	blocks := (j.span + j.grain - 1) / j.grain
	for {
		t := int(arena.next.Add(1)) - 1
		if t >= blocks {
			return
		}
		i0 := t * j.grain
		i1 := i0 + j.grain
		if i1 > j.span {
			i1 = j.span
		}
		runArenaSpan(j, i0, i1)
	}
}

// runArenaSpan executes one block of the job. Every kind computes
// each output element exactly as the serial kernel would — same
// pairing, same tiling, same accumulation order — so results do not
// depend on how blocks land on workers.
func runArenaSpan(j *arenaJob, i0, i1 int) {
	switch j.kind {
	case arenaGemmRows:
		gemmRowsImpl(j.c, j.a, j.b, i0, i1, j.k, j.n, j.acc)
	case arenaGemmTransARows:
		gemmTransARowsImpl(j.c, j.a, j.b, i0, i1, j.m, j.k, j.n, j.acc)
	case arenaGemmTransBRows:
		gemmTransBRowsImpl(j.c, j.a, j.b, i0, i1, j.k, j.n, j.acc)
	case arenaGemmTransBCols:
		// One output row: columns [i0,i1) of C are rows [i0,i1) of B,
		// and the sub-product is contiguous in both — the whole reason
		// the column split restricts itself to m == 1.
		gemmTransBRowsImpl(j.c[i0:i1], j.a, j.b[i0*j.k:i1*j.k], 0, 1, j.k, i1-i0, j.acc)
	case arenaIm2Col:
		j.geom.Im2ColRange(j.img, j.c[i0*j.geom.ColCols():i1*j.geom.ColCols()], i0, i1)
	}
}

// tryArena attempts to fan job out over the worker arena. It returns
// false — and has done no work — when the job is too small to split,
// the machine has no spare cores, the helper budget is spent, or
// another fan-out is already in flight; the caller then runs the
// serial path. On success the job is complete when it returns.
func tryArena(job arenaJob) bool {
	blocks := (job.span + job.grain - 1) / job.grain
	if blocks < 2 || runtime.GOMAXPROCS(0) <= 1 {
		return false
	}
	want := blocks - 1
	if max := runtime.GOMAXPROCS(0) - 1; want > max {
		want = max
	}
	claimed := ClaimParallelHelpers(want)
	if claimed == 0 {
		return false
	}
	if !arena.mu.TryLock() {
		ReleaseParallelHelpers(claimed)
		return false
	}
	ensureArenaWorkers(claimed)
	arena.job = job
	arena.next.Store(0)
	for i := 0; i < claimed; i++ {
		arena.wake <- struct{}{}
	}
	arenaSteal(&arena.job) // the caller always participates
	for i := 0; i < claimed; i++ {
		<-arena.done
	}
	// Drop the operand references before unlocking: the global job
	// slot would otherwise pin the caller's buffers until the next
	// fan-out happens to overwrite it.
	arena.job = arenaJob{}
	arena.mu.Unlock()
	ReleaseParallelHelpers(claimed)
	return true
}

// rowSplitGrain picks the row-block size: rowsPerTask when there are
// plenty of rows, otherwise the minimal pair-preserving block so that
// short matrices (a 16-row conv3 product) can still split 4+ ways.
func rowSplitGrain(m int) int {
	if m >= 4*rowsPerTask {
		return rowsPerTask
	}
	return 2
}

// gemmRowsParallel fans rows of one of the three row kernels out over
// the arena; false means the caller must run serially.
func gemmRowsParallel(kind arenaKind, c, a, b []float64, m, k, n int, accumulate bool) bool {
	return tryArena(arenaJob{
		kind: kind, c: c, a: a, b: b, m: m, k: k, n: n, acc: accumulate,
		span: m, grain: rowSplitGrain(m),
	})
}

// gemmColsParallel fans the columns of a single-row A·Bᵀ product out
// over the arena; false means the caller must run serially.
func gemmColsParallel(c, a, b []float64, k, n int, accumulate bool) bool {
	return tryArena(arenaJob{
		kind: arenaGemmTransBCols, c: c, a: a, b: b, m: 1, k: k, n: n, acc: accumulate,
		span: n, grain: colsPerTask,
	})
}

// ParallelIm2Col is Im2Col with the output rows fanned out over the
// worker arena when the matrix is big enough to pay for it. The
// gather is elementwise, so the result is identical to the serial
// Im2Col at any worker count. Safe and allocation-free to call from
// hot paths; degrades to the serial gather on small shapes, single
// cores and exhausted budgets.
func ParallelIm2Col(g ConvGeom, img, col []float64) {
	r := g.ColRows()
	g.checkIm2Col(img, col, 0, r)
	if r*g.ColCols() >= im2colMinParCells &&
		tryArena(arenaJob{kind: arenaIm2Col, geom: g, img: img, c: col, span: r, grain: im2colRowsPerTask}) {
		return
	}
	g.Im2ColRange(img, col, 0, r)
}
