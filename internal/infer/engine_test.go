package infer

import (
	"testing"
	"testing/quick"
	"time"

	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

// buildModel returns a LeNet-3C1L with a random legal assignment
// across 3 subnets.
func buildModel(seed uint64) *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 4, InC: 1, InH: 8, InW: 8, Expansion: 1.5,
		Subnets: 3, Rule: nn.RuleIncremental, Seed: seed,
	})
	spreadUnits(m, seed^0xFACE, 3)
	return m
}

func input(seed uint64) *tensor.Tensor {
	x := tensor.New(2, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x
}

func TestStepEqualsFullForwardAscending(t *testing.T) {
	m := buildModel(1)
	e := NewEngine(m.Net)
	e.Audit = true
	e.Reset(input(2))
	for s := 1; s <= 3; s++ {
		out, _, err := e.Step(s)
		if err != nil {
			t.Fatal(err)
		}
		want := m.Net.Forward(input(2), nn.Eval(s))
		if !tensor.Equal(out, want, 1e-9) {
			t.Fatalf("subnet %d mismatch", s)
		}
	}
}

func TestStepDownIsFreeOnBackbone(t *testing.T) {
	m := buildModel(3)
	e := NewEngine(m.Net)
	e.Reset(input(4))
	e.MustStep(3)
	headMACs := m.Head.MACs(1)
	_, macs := e.MustStep(1)
	if macs != headMACs {
		t.Fatalf("step down cost %d MACs, want head-only %d", macs, headMACs)
	}
}

func TestStepUpCostsExactlyTheDelta(t *testing.T) {
	m := buildModel(5)
	e := NewEngine(m.Net)
	e.Reset(input(6))
	backbone := func(s int) int64 {
		var total int64
		for _, mv := range m.Movable {
			total += mv.MACs(s)
		}
		return total
	}
	_, m1 := e.MustStep(1)
	if want := backbone(1) + m.Head.MACs(1); m1 != want {
		t.Fatalf("first step %d want %d", m1, want)
	}
	_, m2 := e.MustStep(2)
	if want := backbone(2) - backbone(1) + m.Head.MACs(2); m2 != want {
		t.Fatalf("step 1→2 cost %d want %d", m2, want)
	}
	_, m3 := e.MustStep(3)
	if want := backbone(3) - backbone(2) + m.Head.MACs(3); m3 != want {
		t.Fatalf("step 2→3 cost %d want %d", m3, want)
	}
}

// Property: any random walk over subnets produces outputs identical
// to from-scratch forwards (the audit invariant).
func TestRandomSubnetWalkMatchesFullForward(t *testing.T) {
	f := func(seed uint64) bool {
		m := buildModel(seed)
		x := input(seed ^ 0xBEEF)
		e := NewEngine(m.Net)
		e.Reset(x)
		r := tensor.NewRNG(seed ^ 0x1234)
		for step := 0; step < 8; step++ {
			s := 1 + r.Intn(3)
			out, _, err := e.Step(s)
			if err != nil {
				return false
			}
			want := m.Net.Forward(x, nn.Eval(s))
			if !tensor.Equal(out, want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalMACsNeverExceedsFullRecompute(t *testing.T) {
	// Stepping 1→2→3 must not cost more than running subnet 3 from
	// scratch plus the two extra head recomputes.
	m := buildModel(7)
	e := NewEngine(m.Net)
	e.Reset(input(8))
	e.MustStep(1)
	e.MustStep(2)
	e.MustStep(3)
	full := m.Net.MACs(3)
	extraHeads := m.Head.MACs(1) + m.Head.MACs(2)
	if e.TotalMACs() > full+extraHeads {
		t.Fatalf("incremental total %d exceeds full %d + heads %d", e.TotalMACs(), full, extraHeads)
	}
}

func TestStepBeforeResetFails(t *testing.T) {
	e := NewEngine(buildModel(9).Net)
	if _, _, err := e.Step(1); err == nil {
		t.Fatal("want error before Reset")
	}
	e.Reset(input(10))
	if _, _, err := e.Step(0); err == nil {
		t.Fatal("want error for subnet 0")
	}
}

func TestResetClearsState(t *testing.T) {
	m := buildModel(11)
	e := NewEngine(m.Net)
	e.Reset(input(12))
	e.MustStep(2)
	if e.Current() != 2 || e.TotalMACs() == 0 {
		t.Fatal("state not tracked")
	}
	e.Reset(input(13))
	if e.Current() != 0 || e.TotalMACs() != 0 {
		t.Fatal("Reset must clear state")
	}
	out, _ := e.MustStep(1)
	want := m.Net.Forward(input(13), nn.Eval(1))
	if !tensor.Equal(out, want, 1e-9) {
		t.Fatal("post-reset output wrong")
	}
}

func TestRepeatedStepSameSubnetChargesHeadOnly(t *testing.T) {
	m := buildModel(14)
	e := NewEngine(m.Net)
	e.Reset(input(15))
	e.MustStep(2)
	_, macs := e.MustStep(2)
	if macs != m.Head.MACs(2) {
		t.Fatalf("re-step cost %d, want head-only %d", macs, m.Head.MACs(2))
	}
}

func TestCalibrateSteps(t *testing.T) {
	m := buildModel(51)
	e := NewEngine(m.Net)
	defer e.Close()
	times, err := e.CalibrateSteps(input(52), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("want 3 step times, got %d", len(times))
	}
	for s, d := range times {
		if d <= 0 {
			t.Fatalf("step %d calibrated to non-positive %v", s+1, d)
		}
	}
	// Calibration leaves the engine usable and at the top of the ladder.
	if e.Current() != 3 {
		t.Fatalf("engine at subnet %d after calibration, want 3", e.Current())
	}
	if _, _, err := e.Step(1); err != nil {
		t.Fatalf("engine unusable after calibration: %v", err)
	}
	if _, err := e.CalibrateSteps(input(53), 0, 1); err == nil {
		t.Fatal("want error for n < 1")
	}
}

// TestStepSteadyStateAllocs pins the zero-allocation claim for the
// anytime walk: once the stage buffers are bound and the shard workers
// are up, stepping allocates nothing at all — no activation buffers,
// no contexts, no shard bookkeeping — serial, image-sharded, or on a
// lone image with workers to spare. Any allocation here is a
// regression (a buffer re-bound per walk, an escaping context, a job
// that stopped travelling by value).
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		batch   int
	}{
		{"serial", 1, 8},
		{"parallel", 4, 8},
		{"batch1", 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := buildModel(41)
			x := tensor.New(tc.batch, 1, 8, 8)
			x.FillNormal(tensor.NewRNG(42), 0, 1)
			e := NewEngine(m.Net)
			e.Workers, e.minShardMACs = tc.workers, 0
			defer e.Close()
			walk := func() {
				e.Reset(x)
				for s := 1; s <= 3; s++ {
					e.MustStep(s)
				}
				e.MustStep(1) // step down: nothing to compute but the head
			}
			for i := 0; i < 3; i++ {
				walk() // bind buffers, start workers
			}
			if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
				t.Fatalf("steady-state %s walk allocates %v times per run, want 0", tc.name, allocs)
			}
		})
	}
}

// TestStepTimerObserves pins the live-timing hook the serving layer's
// calibration refresh feeds on: an installed StepTimer sees every
// successful Step with the right subnet and row count and a positive
// duration — and, critically, keeps the walk zero-alloc (the hook
// runs inside the steady-state serving path).
func TestStepTimerObserves(t *testing.T) {
	m := buildModel(77)
	x := tensor.New(4, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(78), 0, 1)
	e := NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()

	type obs struct {
		subnet, rows int
		d            time.Duration
	}
	seen := make([]obs, 0, 16)
	e.StepTimer = func(subnet, rows int, d time.Duration) {
		seen = append(seen, obs{subnet, rows, d})
	}
	e.Reset(x)
	for s := 1; s <= 3; s++ {
		e.MustStep(s)
	}
	if len(seen) != 3 {
		t.Fatalf("timer saw %d steps, want 3", len(seen))
	}
	for i, o := range seen {
		if o.subnet != i+1 || o.rows != 4 {
			t.Fatalf("observation %d = %+v, want subnet %d rows 4", i, o, i+1)
		}
		if o.d <= 0 {
			t.Fatalf("observation %d has non-positive duration %v", i, o.d)
		}
	}
	// A failed Step must not be observed (nothing ran).
	if _, _, err := e.Step(0); err == nil {
		t.Fatal("Step(0) must fail")
	}
	if len(seen) != 3 {
		t.Fatalf("timer saw a failed step: %d observations", len(seen))
	}

	// The hook must not cost the walk its zero-alloc property.
	e.StepTimer = func(subnet, rows int, d time.Duration) {}
	walk := func() {
		e.Reset(x)
		for s := 1; s <= 3; s++ {
			e.MustStep(s)
		}
	}
	for i := 0; i < 3; i++ {
		walk()
	}
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Fatalf("walk with StepTimer installed allocates %v times per run, want 0", allocs)
	}
}
