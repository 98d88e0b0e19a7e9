package infer

import (
	"runtime"
	"slices"
	"testing"

	"steppingnet/internal/tensor"
)

// TestResumeMatchesColdWalk is the cross-request resume-equivalence
// gate, the companion of TestImageShardingMatchesSerial: over the
// same plan grid, exporting the ladder state at rung k, importing it
// into a FRESH engine and climbing k+1..n must produce logits BITWISE
// identical to a cold walk to each rung — at every Workers setting, on
// whichever GEMM backend is active (ci.sh runs it under both). It
// also pins the exact MAC accounting of resumed walks: the resumed
// rungs themselves cost 0 new MACs (TotalMACs restarts at the import),
// and each climbed step executes exactly the MACs the cold walk's
// same step executed.
func TestResumeMatchesColdWalk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	workerCounts := []int{1, 4, 0}
	for gi, gc := range planGrid(131) {
		m, n := gc.m, gc.n
		x := gridInput(m, 1, uint64(197+gi))

		// Cold reference: serial walk 1..n, recording each rung's
		// logits and per-step MACs.
		cold := NewEngine(m.Net)
		cold.Workers = 1
		cold.Reset(x)
		coldOut := make([][]float64, n+1)
		coldMACs := make([]int64, n+1)
		states := make([]*LadderState, n+1)
		for s := 1; s <= n; s++ {
			out, macs, err := cold.Step(s)
			if err != nil {
				t.Fatal(err)
			}
			coldOut[s] = append([]float64(nil), out.Data()...)
			coldMACs[s] = macs

			// Export at every rung along the way: states snapshot the
			// walk without perturbing it (the cold walk keeps producing
			// the same logits after each export).
			states[s], err = cold.ExportState(0)
			if err != nil {
				t.Fatal(err)
			}
			if states[s].Subnet != s {
				t.Fatalf("%s: exported subnet %d at rung %d", gc.name, states[s].Subnet, s)
			}
		}
		cold.Close()

		// checkResume imports st at every worker count and climbs to
		// the top: bitwise logits and exact MACs per climbed step,
		// regardless of how st was produced.
		checkResume := func(label string, st *LadderState) {
			t.Helper()
			s := st.Subnet
			for _, w := range workerCounts {
				r := NewEngine(m.Net)
				r.Workers = w
				if err := r.ImportState(x, st); err != nil {
					t.Fatal(err)
				}
				if r.Current() != s {
					t.Fatalf("%s %s rung %d workers=%d: Current()=%d after import", gc.name, label, s, w, r.Current())
				}
				if !slices.Equal(r.Output().Data(), coldOut[s]) {
					t.Fatalf("%s %s rung %d workers=%d: imported logits differ from the cold walk's", gc.name, label, s, w)
				}
				var climbed int64
				for up := s + 1; up <= n; up++ {
					out, macs, err := r.Step(up)
					if err != nil {
						t.Fatal(err)
					}
					if macs != coldMACs[up] {
						t.Fatalf("%s %s resume@%d→%d workers=%d: %d MACs, cold step %d",
							gc.name, label, s, up, w, macs, coldMACs[up])
					}
					climbed += macs
					if !slices.Equal(out.Data(), coldOut[up]) {
						t.Fatalf("%s %s resume@%d→%d workers=%d: logits round differently from the cold walk",
							gc.name, label, s, up, w)
					}
				}
				// Resumed rungs cost 0 new MACs: the engine's meter
				// holds exactly the climbed steps' work.
				if r.TotalMACs() != climbed {
					t.Fatalf("%s %s resume@%d workers=%d: TotalMACs %d, climbed steps sum %d",
						gc.name, label, s, w, r.TotalMACs(), climbed)
				}
				r.Close()
			}
		}

		// Resume from every rung: the directly exported state, and —
		// below the top rung — a CLIMBED state: imported, climbed one
		// rung by a scratch engine and re-exported, which is what a
		// batch-1 resume publishes to the cache. Both must be
		// indistinguishable to the resumer.
		for s := 1; s <= n; s++ {
			checkResume("direct", states[s])
			if s < n {
				up := NewEngine(m.Net)
				up.Workers = 1
				if err := up.ImportState(x, states[s]); err != nil {
					t.Fatal(err)
				}
				up.MustStep(s + 1)
				upSt, err := up.ExportState(0)
				if err != nil {
					t.Fatal(err)
				}
				up.Close()
				checkResume("climbed", upSt)
			}
		}
	}
}

// TestExportRowFromBatchedWalk pins the serving-tier export path: a
// multi-image batch walks to rung k together, each row's state is
// exported individually, and resuming any row in a fresh batch-1
// engine matches that row's own cold batch-1 walk bitwise — so a
// batched server can cache every request of a batch after one walk.
func TestExportRowFromBatchedWalk(t *testing.T) {
	const batch, n = 3, 3
	m := intraGridModel(151, 2, 8, 1.4)
	xb := tensor.New(batch, 2, 8, 8)
	xb.FillNormal(tensor.NewRNG(251), 0, 1)

	be := NewEngine(m.Net)
	be.Workers, be.minShardMACs = 2, 0
	defer be.Close()
	be.Reset(xb)
	const k = 2
	for s := 1; s <= k; s++ {
		be.MustStep(s)
	}

	rowLen := xb.Len() / batch
	for row := 0; row < batch; row++ {
		st, err := be.ExportState(row)
		if err != nil {
			t.Fatal(err)
		}
		x1 := tensor.New(1, 2, 8, 8)
		copy(x1.Data(), xb.Data()[row*rowLen:(row+1)*rowLen])

		coldE := NewEngine(m.Net)
		coldE.Workers = 1
		coldE.Reset(x1)
		var coldTop []float64
		for s := 1; s <= n; s++ {
			out, _, err := coldE.Step(s)
			if err != nil {
				t.Fatal(err)
			}
			if s == k {
				for e, v := range st.Layers[len(st.Layers)-1].Data() {
					if v != out.Data()[e] {
						t.Fatalf("row %d: exported rung-%d logit[%d]=%v, cold %v", row, k, e, st.Layers[len(st.Layers)-1].Data()[e], out.Data()[e])
					}
				}
			}
			if s == n {
				coldTop = append([]float64(nil), out.Data()...)
			}
		}

		r := NewEngine(m.Net)
		r.Workers = 1
		if err := r.ImportState(x1, st); err != nil {
			t.Fatal(err)
		}
		out, _, err := r.Step(n)
		if err != nil {
			t.Fatal(err)
		}
		for e, v := range out.Data() {
			if v != coldTop[e] {
				t.Fatalf("row %d resumed logit[%d]=%v, cold %v", row, e, v, coldTop[e])
			}
		}
	}
}

// TestImportStateRejectsMismatch pins the structural validation of
// ImportState: nil states, subnet 0, wrong layer counts, multi-image
// inputs, input-shape mismatches and non-batch-1 layer tensors are all
// rejected with an error before the engine is touched, and ExportState
// refuses to snapshot an unwalked engine or an out-of-range row.
func TestImportStateRejectsMismatch(t *testing.T) {
	m := intraGridModel(161, 1, 8, 1.0)
	x := tensor.New(1, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(261), 0, 1)
	e := NewEngine(m.Net)
	e.Workers = 1
	e.Reset(x)

	if _, err := e.ExportState(0); err == nil {
		t.Fatal("ExportState before any Step should fail")
	}
	e.MustStep(2)
	if _, err := e.ExportState(1); err == nil {
		t.Fatal("ExportState row out of range should fail")
	}
	st, err := e.ExportState(0)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Engine {
		r := NewEngine(m.Net)
		r.Workers = 1
		return r
	}
	if err := fresh().ImportState(x, nil); err == nil {
		t.Fatal("nil state should be rejected")
	}
	bad := *st
	bad.Subnet = 0
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("subnet 0 should be rejected")
	}
	bad = *st
	bad.Layers = st.Layers[:len(st.Layers)-1]
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("wrong layer count should be rejected")
	}
	bad = *st
	bad.Layers = append([]*tensor.Tensor(nil), st.Layers...)
	bad.Layers[0] = nil
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("nil layer tensor should be rejected")
	}
	bad = *st
	bad.Layers = append([]*tensor.Tensor(nil), st.Layers...)
	bad.Layers[1] = tensor.New(2, bad.Layers[1].Len())
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("non-batch-1 layer tensor should be rejected")
	}
	x2 := tensor.New(2, 1, 8, 8)
	if err := fresh().ImportState(x2, st); err == nil {
		t.Fatal("multi-image input should be rejected")
	}
	xw := tensor.New(1, 1, 8, 9)
	if err := fresh().ImportState(xw, st); err == nil {
		t.Fatal("input shape mismatch should be rejected")
	}
	if err := fresh().ImportState(nil, st); err == nil {
		t.Fatal("nil input should be rejected")
	}

	// The state itself is still importable after all the rejections
	// (they must not have mutated it), and a valid import still works.
	r := fresh()
	if err := r.ImportState(x, st); err != nil {
		t.Fatal(err)
	}
	if r.Current() != 2 {
		t.Fatalf("Current()=%d after valid import", r.Current())
	}
}

// TestResumedClimbZeroAlloc pins that the semantic cache does not
// cost the hot walk its zero-allocation budget: at steady state (pool
// warm), a full import-and-climb cycle — ImportState seeding every
// layer from the recycle pool, then stepping to the top — allocates
// nothing, exactly like the cold walk the engine benchmarks gate.
func TestResumedClimbZeroAlloc(t *testing.T) {
	m := buildModel(61)
	x := tensor.New(1, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(62), 0, 1)
	e := NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	e.Reset(x)
	e.MustStep(1)
	e.MustStep(2)
	st, err := e.ExportState(0)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if err := e.ImportState(x, st); err != nil {
			t.Fatal(err)
		}
		e.MustStep(3)
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the recycle pool to steady state
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("resumed climb allocates %v times per run, want 0", allocs)
	}
}
