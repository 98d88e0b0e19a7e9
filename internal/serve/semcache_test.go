package serve

import (
	"testing"
	"time"

	"steppingnet/internal/governor"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// slowTopStep fabricates a latency model whose final rung is
// unaffordable within ordinary test deadlines (1h) while every lower
// rung costs ~nothing — so a tight-deadline submit deterministically
// stops one rung short and a generous one climbs to the top.
func slowTopStep(m *models.Model, n int) governor.LatencyModel {
	lm := instantSteps(m, n)
	lm.StepTime[n-1] = time.Hour
	return lm
}

// coldLadder walks one input up the full ladder on a fresh serial
// engine, returning each rung's logits and per-step MACs (index s).
func coldLadder(t *testing.T, m *models.Model, in []float64, n int) ([][]float64, []int64) {
	t.Helper()
	e := infer.NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	x := tensor.New(1, m.InC, m.InH, m.InW)
	copy(x.Data(), in)
	e.Reset(x)
	outs := make([][]float64, n+1)
	macs := make([]int64, n+1)
	for s := 1; s <= n; s++ {
		o, mc, err := e.Step(s)
		if err != nil {
			t.Fatal(err)
		}
		outs[s] = append([]float64(nil), o.Data()...)
		macs[s] = mc
	}
	return outs, macs
}

// TestCacheHitServesStoredLogits pins the full-hit path: a repeat
// request whose cached rung covers its ladder cap is answered from
// the cache bitwise-identically at zero MACs, flagged CacheHit, and
// counted in the per-class counters and cache gauges.
func TestCacheHitServesStoredLogits(t *testing.T) {
	m := buildModel(401)
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: 16,
		Calibration: instantSteps(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	in := inputVec(402, m.InC*m.InH*m.InW)
	first, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if first.Subnet != 3 || first.CacheHit || first.Resumed {
		t.Fatalf("cold submit: %+v, want cold full-ladder answer", first)
	}
	second, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("repeat submit not served from cache: %+v", second)
	}
	if second.Subnet != first.Subnet || second.MACs != 0 {
		t.Fatalf("cache hit subnet %d MACs %d, want subnet %d MACs 0", second.Subnet, second.MACs, first.Subnet)
	}
	for i, v := range second.Logits {
		if v != first.Logits[i] {
			t.Fatalf("cached logit[%d]=%v, cold %v", i, v, first.Logits[i])
		}
	}
	snap := sv.Stats()
	if !snap.CacheEnabled || snap.CacheHits != 1 || snap.CacheEntries != 1 || snap.CacheBytes <= 0 {
		t.Fatalf("snapshot cache fields %+v, want enabled with 1 hit 1 entry", snap)
	}
	if snap.Classes[0].CacheHits != 1 {
		t.Fatalf("class 0 cache hits %d, want 1", snap.Classes[0].CacheHits)
	}
}

// TestCachedResumeBitwiseEqualsCold is the serve-level half of the
// resume-equivalence contract (the engine-level grid is
// TestResumeMatchesColdWalk): a tight-deadline submit walks an input
// partway, a later generous submit of the SAME input resumes from the
// cached rung — and its logits must be bitwise identical to a cold
// full walk of that input, with MACs metering exactly the climbed
// rungs. What each walk publishes is pinned too: the stopped walk its
// resumable state, the top-rung walk its logits alone (nothing can
// climb from there), and looking at either through CachePeek counts
// no hit. Run by the ci.sh equivalence stage on both GEMM backends.
func TestCachedResumeBitwiseEqualsCold(t *testing.T) {
	m := buildModel(411)
	coldOuts, coldMACs := coldLadder(t, m, inputVec(412, m.InC*m.InH*m.InW), 3)
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1,
		CacheEntries: 16, Calibration: slowTopStep(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := inputVec(412, m.InC*m.InH*m.InW)

	tight, err := sv.Submit(Request{Input: in, Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Subnet != 2 || tight.Resumed {
		t.Fatalf("tight submit reached subnet %d (resumed=%v), want cold stop at 2", tight.Subnet, tight.Resumed)
	}
	if ent := waitEntry(t, sv, in, 2); ent.State == nil {
		t.Fatal("a walk stopped below the top published no resumable state")
	}
	generous, err := sv.Submit(Request{Input: in, Deadline: 1000 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !generous.Resumed || generous.CacheHit {
		t.Fatalf("generous submit not resumed: %+v", generous)
	}
	if generous.Subnet != 3 {
		t.Fatalf("resumed walk stopped at %d, want 3", generous.Subnet)
	}
	for i, v := range generous.Logits {
		if v != coldOuts[3][i] {
			t.Fatalf("resumed logit[%d]=%v, cold walk %v", i, v, coldOuts[3][i])
		}
	}
	// Exact MAC accounting: the resumed rungs cost 0 new MACs, so
	// the answer meters only the climbed step(s).
	if generous.MACs != coldMACs[3] {
		t.Fatalf("resumed MACs %d, want climbed step only %d", generous.MACs, coldMACs[3])
	}
	if ent := waitEntry(t, sv, in, 3); ent.State != nil {
		t.Fatal("a walk that reached the top rung published state nothing can resume from")
	}
	if snap := sv.Stats(); snap.CacheResumes != 1 || snap.Classes[0].CacheResumes != 1 || snap.CacheHits != 0 {
		t.Fatalf("cache counters resumes %d/%d hits %d, want 1/1 and no hit", snap.CacheResumes, snap.Classes[0].CacheResumes, snap.CacheHits)
	}
	sv.Close()
}

// waitEntry returns the cache entry for in once it has reached rung: a
// worker answers first and publishes after, so only then is the next
// repeat sure to find it.
func waitEntry(t *testing.T, sv *Server, in []float64, rung int) *cache.Entry {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if ent, ok := sv.CachePeek(cache.KeyOf(in)); ok && ent.Subnet == rung {
			return ent
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rung-%d entry was ever published", rung)
		}
	}
}

// TestEarlyExitNeverChangesArgmax pins the early-exit safety
// contract: with thresholds from CalibrateExitMargins, every
// early-exited answer predicts the same class the full-ladder walk
// would have predicted — and the exit does fire (the headroom is
// actually reclaimed, visible in the counters and MAC meter).
func TestEarlyExitNeverChangesArgmax(t *testing.T) {
	m := buildModel(421)
	imgLen := m.InC * m.InH * m.InW
	const nInputs = 48
	inputs := make([][]float64, nInputs)
	for i := range inputs {
		inputs[i] = inputVec(uint64(500+i), imgLen)
	}
	margins, err := CalibrateExitMargins(m, 3, 1, inputs, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := New(Config{Model: m, Subnets: 3, Workers: 1, Calibration: instantSteps(m, 3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	exit, err := New(Config{
		Model: m, Subnets: 3, Workers: 1,
		ExitMargins: margins, Calibration: instantSteps(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()

	exited := 0
	for i, in := range inputs {
		full, err := cold.Submit(Request{Input: in, Deadline: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		got, err := exit.Submit(Request{Input: in, Deadline: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if got.Pred != full.Pred {
			t.Fatalf("input %d: early-exit server predicted %d, full ladder %d (exit=%v subnet=%d)",
				i, got.Pred, full.Pred, got.EarlyExit, got.Subnet)
		}
		if got.EarlyExit {
			exited++
			if got.Subnet >= full.Subnet {
				t.Fatalf("input %d: flagged EarlyExit but served subnet %d ≥ full %d", i, got.Subnet, full.Subnet)
			}
			if got.MACs >= full.MACs {
				t.Fatalf("input %d: early exit spent %d MACs, full walk %d", i, got.MACs, full.MACs)
			}
		}
	}
	if exited == 0 {
		t.Fatal("early exit never fired on the calibration set")
	}
	if snap := exit.Stats(); snap.EarlyExits != int64(exited) || snap.Classes[0].EarlyExits != int64(exited) {
		t.Fatalf("EarlyExits counters %d/%d, want %d", snap.EarlyExits, snap.Classes[0].EarlyExits, exited)
	}
}

// TestCacheEvictionBoundsLiveSet pins the serving-side eviction
// wiring: a cache bounded to a handful of entries under many distinct
// inputs stays within its bounds and reports evictions, while the
// Submitted = Served + Rejected invariant holds throughout.
func TestCacheEvictionBoundsLiveSet(t *testing.T) {
	m := buildModel(431)
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: 4,
		Calibration: instantSteps(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	imgLen := m.InC * m.InH * m.InW
	for i := 0; i < 12; i++ {
		if _, err := sv.Submit(Request{Input: inputVec(uint64(600+i), imgLen), Deadline: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	// The most recent key must have survived the churn.
	res, err := sv.Submit(Request{Input: inputVec(611, imgLen), Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatalf("most recently inserted key missed the cache: %+v", res)
	}
	snap := sv.Stats()
	if snap.CacheEntries > 4 {
		t.Fatalf("cache holds %d entries, bound 4", snap.CacheEntries)
	}
	if snap.CacheEvictions == 0 {
		t.Fatal("12 distinct keys through a 4-entry cache produced no evictions")
	}
	if snap.CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", snap.CacheHits)
	}
	sv.Close()
	snap = sv.Stats()
	if snap.Submitted != snap.Served+snap.Rejected {
		t.Fatalf("invariant broken: submitted %d != served %d + rejected %d", snap.Submitted, snap.Served, snap.Rejected)
	}
}

// TestExitArmsGovernorRelaxStage pins the governor wiring: a server
// with SLOs AND the early exit armed builds its brownout controller
// with the relax-exit stage prepended (ladder deeper by
// exitRelaxSteps), while a server without the exit keeps the original
// ladder depth.
func TestExitArmsGovernorRelaxStage(t *testing.T) {
	m := buildModel(441)
	base := Config{
		Model: m, Subnets: 3, Workers: 1,
		PriorityClasses: 2,
		SLOs:            []governor.SLO{1: {P99Target: time.Millisecond}},
		ControlInterval: -1, // build the controller, no background loop
		Calibration:     instantSteps(m, 3),
	}
	plain, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	armed := base
	armed.ExitMargin = 0.5
	withExit, err := New(armed)
	if err != nil {
		t.Fatal(err)
	}
	defer withExit.Close()
	for c := 0; c < 2; c++ {
		want := plain.ctl.MaxLevel(c) + exitRelaxSteps
		if got := withExit.ctl.MaxLevel(c); got != want {
			t.Fatalf("class %d ladder depth %d with exit armed, want %d", c, got, want)
		}
	}
}
