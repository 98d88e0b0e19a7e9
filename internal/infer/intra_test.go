package infer

import (
	"runtime"
	"testing"
	"time"

	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

// forceLayerSharding raises GOMAXPROCS (so the cooperative helper
// budget grants workers even on a single-CPU box) and zeroes
// nn.ShardMinOps (so the tiny test models shard), restoring both.
func forceLayerSharding(t *testing.T, procs int) {
	t.Helper()
	oldProcs := runtime.GOMAXPROCS(procs)
	oldMin := nn.ShardMinOps
	nn.ShardMinOps = 0
	t.Cleanup(func() {
		runtime.GOMAXPROCS(oldProcs)
		nn.ShardMinOps = oldMin
	})
}

// intraGridModel builds one model of the odd-shape property grid:
// input sizes that do and do not survive the pooling stages, channel
// counts and expansions that produce odd filter counts (unroll
// remainders in every kernel), and per-seed random assignments.
func intraGridModel(seed uint64, inC, inH int, expansion float64) *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 5, InC: inC, InH: inH, InW: inH, Expansion: expansion,
		Subnets: 3, Rule: nn.RuleIncremental, Seed: seed,
	})
	r := tensor.NewRNG(seed ^ 0x17A7)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for i := 0; i < a.Units(); i++ {
			a.SetID(i, 1+r.Intn(3))
		}
		a.SetID(0, 1)
	}
	return m
}

// TestIntraLayerParallelMatchesSerial is the cross-worker-count
// equivalence gate for the batch-1 intra-layer sharding path: over a
// property grid of odd model shapes, a single-image random ladder
// walk (ups, downs, re-steps) must produce outputs BITWISE identical
// to the serial walk — and identical MAC accounting — at every worker
// count in {1, 2, 4, GOMAXPROCS}. It extends TestSIMDWidthInvariance
// to the new split axes: conv spatial rows, dense unit tiles and
// pooling planes, on whichever GEMM backend is active (ci.sh runs it
// under both). Run under -race this also exercises the span workers'
// disjoint-write discipline.
func TestIntraLayerParallelMatchesSerial(t *testing.T) {
	forceLayerSharding(t, 4)
	grid := []struct {
		inC, inH  int
		expansion float64
	}{
		{1, 8, 1.0},
		{3, 9, 1.3},  // odd input: pooling stages skip, odd conv rows
		{2, 12, 1.7}, // odd filter counts from the expansion
	}
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for gi, gcase := range grid {
		m := intraGridModel(uint64(31+gi), gcase.inC, gcase.inH, gcase.expansion)
		x := tensor.New(1, gcase.inC, gcase.inH, gcase.inH)
		x.FillNormal(tensor.NewRNG(uint64(97+gi)), 0, 1)

		// The serial reference walk.
		serial := NewEngine(m.Net)
		serial.Workers = 1
		serial.Reset(x)

		engines := make([]*Engine, len(workerCounts))
		for i, w := range workerCounts {
			engines[i] = NewEngine(m.Net)
			engines[i].Workers = w
			defer engines[i].Close()
			engines[i].Reset(x)
		}

		// A fixed walk covering first-step, step-up, step-down and
		// re-step transitions (the nNew==0 copy-only paths included).
		walk := []int{1, 2, 3, 1, 3, 2, 2, 3}
		for step, s := range walk {
			wantOut, wantMACs, err := serial.Step(s)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range workerCounts {
				gotOut, gotMACs, err := engines[i].Step(s)
				if err != nil {
					t.Fatal(err)
				}
				if gotMACs != wantMACs {
					t.Fatalf("grid %d step %d→%d workers=%d: %d MACs, serial %d",
						gi, step, s, w, gotMACs, wantMACs)
				}
				gd, wd := gotOut.Data(), wantOut.Data()
				for e := range gd {
					if gd[e] != wd[e] {
						t.Fatalf("grid %d step %d→%d workers=%d: output[%d] rounds differently: %v vs serial %v",
							gi, step, s, w, e, gd[e], wd[e])
					}
				}
			}
		}
		for i := range engines {
			if engines[i].TotalMACs() != serial.TotalMACs() {
				t.Fatalf("grid %d workers=%d: total MACs %d, serial %d",
					gi, workerCounts[i], engines[i].TotalMACs(), serial.TotalMACs())
			}
		}
	}
}

// TestIntraLayerShardingMatchesAudit re-runs a batch-1 sharded walk
// with the audit cross-check on: every sharded step is compared
// against a from-scratch forward, so a span that silently skipped or
// doubled work would panic here.
func TestIntraLayerShardingMatchesAudit(t *testing.T) {
	forceLayerSharding(t, 4)
	m := intraGridModel(71, 2, 8, 1.5)
	x := tensor.New(1, 2, 8, 8)
	x.FillNormal(tensor.NewRNG(72), 0, 1)
	e := NewEngine(m.Net)
	e.Workers = 4
	e.Audit = true
	defer e.Close()
	e.Reset(x)
	for _, s := range []int{1, 3, 2, 3, 1, 2} {
		if _, _, err := e.Step(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLayerShardWorkersReleased pins the lifecycle of the intra-layer
// shard workers: Close returns only after every persistent worker has
// exited, so repeated create/shard/Close cycles hold the process
// goroutine count steady — no leak per served batch-1 request.
func TestLayerShardWorkersReleased(t *testing.T) {
	forceLayerSharding(t, 4)
	m := intraGridModel(81, 1, 8, 1.2)
	x := tensor.New(1, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(82), 0, 1)

	cycle := func() {
		e := NewEngine(m.Net)
		e.Workers = 4
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
