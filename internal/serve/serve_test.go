package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"steppingnet/internal/governor"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

// buildModel returns a LeNet-3C1L with a random legal assignment
// across 3 subnets, the same shape the infer and governor tests use.
func buildModel(seed uint64) *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 4, InC: 1, InH: 8, InW: 8, Expansion: 1.5,
		Subnets: 3, Rule: nn.RuleIncremental, Seed: seed,
	})
	r := tensor.NewRNG(seed ^ 0x5E12E)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(3))
		}
	}
	return m
}

func inputVec(seed uint64, n int) []float64 {
	x := tensor.New(n)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x.Data()
}

// instantSteps fabricates a latency model whose steps cost ~nothing,
// so generous-deadline tests deterministically reach the full ladder.
func instantSteps(m *models.Model, n int) governor.LatencyModel {
	lm := governor.LatencyModel{StepMACs: governor.StepCosts(m, n), StepTime: make([]time.Duration, n)}
	for i := range lm.StepTime {
		lm.StepTime[i] = time.Nanosecond
	}
	return lm
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for missing model")
	}
	m := buildModel(1)
	if _, err := New(Config{Model: m}); err == nil {
		t.Fatal("want error for zero subnets")
	}
	if _, err := New(Config{Model: m, Subnets: 3, MinSubnet: 4}); err == nil {
		t.Fatal("want error for MinSubnet > Subnets")
	}
	if _, err := New(Config{Model: m, Subnets: 2, Calibration: instantSteps(m, 3)}); err == nil {
		t.Fatal("want error for calibration depth mismatch")
	}
}

// TestExitMarginsValidation pins the per-class margin-vector checks:
// the early-exit path indexes ExitMargins by predicted class, so a
// vector whose length disagrees with the model's class count (or that
// carries a negative threshold) must be rejected at construction —
// not discovered as an out-of-range panic on the first inference.
func TestExitMarginsValidation(t *testing.T) {
	m := buildModel(3) // 4 classes
	base := Config{Model: m, Subnets: 3, Workers: 1, Calibration: instantSteps(m, 3)}

	short := base
	short.ExitMargins = []float64{1, 1, 1}
	if _, err := New(short); err == nil {
		t.Fatal("want error for a 3-entry ExitMargins on a 4-class model")
	}
	long := base
	long.ExitMargins = []float64{1, 1, 1, 1, 1}
	if _, err := New(long); err == nil {
		t.Fatal("want error for a 5-entry ExitMargins on a 4-class model")
	}
	neg := base
	neg.ExitMargins = []float64{1, -0.5, 1, 1}
	if _, err := New(neg); err == nil {
		t.Fatal("want error for a negative per-class margin")
	}

	ok := base
	ok.ExitMargins = []float64{0.5, 1.5, 0, 2}
	srv, err := New(ok)
	if err != nil {
		t.Fatalf("valid per-class margins rejected: %v", err)
	}
	defer srv.Close()
	// The margin vector must actually drive serving, not just pass
	// validation: a request through the full path may exit early on
	// any class without indexing out of range.
	if _, err := srv.Submit(Request{Input: inputVec(9, srv.imgLen), Deadline: time.Second}); err != nil {
		t.Fatalf("submit with per-class margins: %v", err)
	}
}

func TestSubmitBadInput(t *testing.T) {
	m := buildModel(2)
	srv, err := New(Config{Model: m, Subnets: 3, Workers: 1, Calibration: instantSteps(m, 3)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Submit(Request{Input: make([]float64, 7)}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
}

// TestAnswersMatchEngine pins serving correctness: with a generous
// deadline the answer comes from the full ladder and its logits are
// exactly what a hand-driven engine walk produces, with the walk's
// incremental MAC accounting.
func TestAnswersMatchEngine(t *testing.T) {
	m := buildModel(3)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := inputVec(4, srv.imgLen)
	res, err := srv.Submit(Request{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subnet != 3 {
		t.Fatalf("generous deadline answered from subnet %d, want 3", res.Subnet)
	}
	if !res.DeadlineMet {
		t.Fatal("hour-long deadline reported missed")
	}

	// Reference: drive an engine through the same ladder walk.
	e := infer.NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	x := tensor.New(1, m.InC, m.InH, m.InW)
	copy(x.Data(), in)
	e.Reset(x)
	var want *tensor.Tensor
	for s := 1; s <= 3; s++ {
		want, _ = e.MustStep(s)
	}
	if len(res.Logits) != m.Classes {
		t.Fatalf("logits length %d, want %d", len(res.Logits), m.Classes)
	}
	for j, v := range res.Logits {
		if v != want.Data()[j] {
			t.Fatalf("logit %d = %g, engine walk says %g", j, v, want.Data()[j])
		}
	}
	if res.Pred != want.ArgMax() {
		t.Fatalf("pred %d, want %d", res.Pred, want.ArgMax())
	}
	if res.MACs != e.TotalMACs() {
		t.Fatalf("request charged %d MACs, engine walk spent %d", res.MACs, e.TotalMACs())
	}
}

// TestBatch1WorkerSetMatchesSerial pins that the serving layer cannot
// tell how an answer was batched: with cores to spare, a lone pop
// (walked serially by construction) and the rows of a 4-wide
// micro-batch must all answer with logits BITWISE identical to a
// serial batch-1 engine walk of the same input to the same rung, and
// be charged that walk's MACs.
func TestBatch1WorkerSetMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := buildModel(3)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, MaxBatch: 4, QueueDepth: 16,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const reqs = 9
	results := make([]Result, reqs)
	errs := make([]error, reqs)
	results[0], errs[0] = srv.Submit(Request{Input: inputVec(40, srv.imgLen)}) // a lone pop
	var wg sync.WaitGroup
	for i := 1; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = srv.Submit(Request{Input: inputVec(40+uint64(i), srv.imgLen)})
		}(i)
	}
	wg.Wait()

	e := infer.NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	x := tensor.New(1, m.InC, m.InH, m.InW)
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		copy(x.Data(), inputVec(40+uint64(i), srv.imgLen))
		e.Reset(x)
		var want *tensor.Tensor
		for s := 1; s <= res.Subnet; s++ {
			want, _ = e.MustStep(s)
		}
		for j, v := range res.Logits {
			if v != want.Data()[j] {
				t.Fatalf("request %d logit %d = %g, serial walk to rung %d says %g", i, j, v, res.Subnet, want.Data()[j])
			}
		}
		if res.MACs != e.TotalMACs() {
			t.Fatalf("request %d charged %d MACs, serial walk spent %d", i, res.MACs, e.TotalMACs())
		}
	}
}

// TestDeadlineNarrowing pins the scheduler's deadline awareness with a
// fabricated calibration: when the model says steps beyond the first
// cost an hour, any realistic deadline must be answered from subnet 1
// — and the answer still arrives (anytime property: narrow beats
// never).
func TestDeadlineNarrowing(t *testing.T) {
	m := buildModel(5)
	cal := governor.LatencyModel{
		StepMACs: governor.StepCosts(m, 3),
		StepTime: []time.Duration{time.Nanosecond, time.Hour, time.Hour},
	}
	srv, err := New(Config{Model: m, Subnets: 3, Workers: 1, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := srv.Submit(Request{Input: inputVec(6, srv.imgLen), Deadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subnet != 1 {
		t.Fatalf("tight deadline answered from subnet %d, want 1", res.Subnet)
	}
	if res.MACs != governor.StepCosts(m, 3)[0] {
		t.Fatalf("subnet-1 answer cost %d MACs, want %d", res.MACs, governor.StepCosts(m, 3)[0])
	}

	// An already-blown deadline still gets the minimum answer, marked
	// as missed.
	res, err = srv.Submit(Request{Input: inputVec(7, srv.imgLen), Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subnet != 1 {
		t.Fatalf("blown deadline answered from subnet %d, want 1", res.Subnet)
	}
	if res.DeadlineMet {
		t.Fatal("nanosecond deadline cannot have been met")
	}
}

// TestMinSubnetFloor: a request whose deadline is already blown must
// still be walked to the configured MinSubnet — never answered from
// below the floor (regression: the early-finalize path used to cut
// blown-deadline requests off at subnet 1 regardless of MinSubnet).
func TestMinSubnetFloor(t *testing.T) {
	m := buildModel(22)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, MinSubnet: 2,
		Calibration: instantSteps(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Submit(Request{Input: inputVec(23, srv.imgLen), Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subnet < 2 {
		t.Fatalf("blown deadline answered from subnet %d, below MinSubnet 2", res.Subnet)
	}
}

// TestMicroBatchingCorrectness floods a MaxBatch-4 server and checks
// every answer against a from-scratch forward at the subnet that
// answered it: batching must never mix rows up or change numerics
// beyond the engine's own guarantees.
func TestMicroBatchingCorrectness(t *testing.T) {
	m := buildModel(8)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, MaxBatch: 4, QueueDepth: 16,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const reqs = 12
	ins := make([][]float64, reqs)
	for i := range ins {
		ins[i] = inputVec(100+uint64(i), srv.imgLen)
	}
	results := make([]Result, reqs)
	errs := make([]error, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = srv.Submit(Request{Input: ins[i]})
		}(i)
	}
	wg.Wait()

	for i := 0; i < reqs; i++ {
		if errs[i] != nil {
			if errors.Is(errs[i], ErrOverloaded) {
				continue // legal under a 16-deep queue; the rest must be right
			}
			t.Fatalf("request %d: %v", i, errs[i])
		}
		res := results[i]
		if res.Subnet < 1 || res.Subnet > 3 {
			t.Fatalf("request %d answered from subnet %d", i, res.Subnet)
		}
		x := tensor.New(1, m.InC, m.InH, m.InW)
		copy(x.Data(), ins[i])
		want := m.Net.Forward(x, nn.Eval(res.Subnet))
		for j, v := range res.Logits {
			if diff := v - want.Data()[j]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("request %d logit %d: got %g want %g (subnet %d)", i, j, v, want.Data()[j], res.Subnet)
			}
		}
	}
}

// TestShedCap pins the pressure→ladder-cap mapping as a pure function
// of the queue occupancy a class sees (requests at or above it).
func TestShedCap(t *testing.T) {
	s := &Server{
		cfg:        Config{MinSubnet: 1, QueueDepth: 8},
		n:          4,
		priorities: 1,
		lanes:      make([][]*pending, 1),
	}
	fill := func(k int) {
		s.lanes[0] = s.lanes[0][:0]
		for i := 0; i < k; i++ {
			s.lanes[0] = append(s.lanes[0], &pending{})
		}
	}
	cases := []struct{ queued, want int }{
		{0, 4}, // empty queue: full ladder
		{1, 3},
		{4, 2},
		{7, 1},
		{8, 1}, // full queue: minimum answer only
	}
	for _, tc := range cases {
		fill(tc.queued)
		if got := s.shedCapLocked(0); got != tc.want {
			t.Fatalf("shedCap with %d/8 queued = %d, want %d", tc.queued, got, tc.want)
		}
	}
}

// TestShedCapClassAware pins the priority dimension of the shed cap:
// with the same total queue contents, a high-priority class — which
// only feels the backlog at or above itself — keeps a wider ladder
// than the low class drowning under it.
func TestShedCapClassAware(t *testing.T) {
	s := &Server{
		cfg:        Config{MinSubnet: 1, QueueDepth: 8},
		n:          4,
		priorities: 2,
		lanes:      make([][]*pending, 2),
	}
	// 7 low-priority queued, 1 high.
	for i := 0; i < 7; i++ {
		s.lanes[0] = append(s.lanes[0], &pending{})
	}
	s.lanes[1] = append(s.lanes[1], &pending{})
	if got := s.shedCapLocked(0); got != 1 {
		t.Fatalf("low class sees 8/8 backlog, shed cap = %d, want 1", got)
	}
	if got := s.shedCapLocked(1); got != 3 {
		t.Fatalf("high class sees 1/8 backlog, shed cap = %d, want 3", got)
	}
}

// TestAdmitCap pins the nested queue shares of weighted admission:
// the top class always owns the whole queue, lower classes fill
// proportionally smaller prefixes, and no share rounds down to zero.
func TestAdmitCap(t *testing.T) {
	s := &Server{cfg: Config{QueueDepth: 64}, priorities: 4}
	for c, want := range map[int]int{0: 16, 1: 32, 2: 48, 3: 64} {
		if got := s.admitCap(c); got != want {
			t.Fatalf("admitCap(%d) = %d, want %d", c, got, want)
		}
	}
	// Single class: the plain bounded queue.
	s = &Server{cfg: Config{QueueDepth: 8}, priorities: 1}
	if got := s.admitCap(0); got != 8 {
		t.Fatalf("single-class admitCap = %d, want 8", got)
	}
	// Tiny queue: every class keeps at least one slot.
	s = &Server{cfg: Config{QueueDepth: 3}, priorities: 3}
	if got := s.admitCap(0); got != 1 {
		t.Fatalf("floor admitCap = %d, want 1", got)
	}
}

// TestPriorityProtectsHighClassUnderOverload is the serving-hardening
// acceptance test: a sustained low-priority overload (dozens of
// closed-loop submitters against one deliberately slowed worker —
// well past 12× capacity) must not touch the high-priority class.
// Every high-priority request is admitted (never shed), served from
// the full ladder (never narrowed), and meets its deadline, while the
// rejections and narrowed answers concentrate entirely in the low
// class.
func TestPriorityProtectsHighClassUnderOverload(t *testing.T) {
	m := buildModel(30)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, QueueDepth: 32, MaxBatch: 4,
		PriorityClasses: 2,
		Calibration:     instantSteps(m, 3), DefaultDeadline: time.Hour,
		// 2ms per batch makes one worker's capacity ~2k req/s at full
		// batching; 40 closed-loop low submitters offer far beyond it.
		ServeDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	in := inputVec(31, srv.imgLen)

	// Sustained low-priority pressure: closed-loop submitters that
	// immediately resubmit on any outcome until told to stop.
	const lowWorkers = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < lowWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.Submit(Request{Input: in, Priority: 0, Deadline: 50 * time.Millisecond}) //nolint:errcheck — outcomes read from stats
			}
		}()
	}
	// Wait until the low tide is actually pressing on the queue.
	waitUntil := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueLen < 8 {
		if time.Now().After(waitUntil) {
			t.Fatal("low-priority backlog never built up")
		}
		time.Sleep(time.Millisecond)
	}

	// The protected class: sequential submits (≈10% of the mix) with
	// a deadline that only requires jumping the low-priority queue.
	const highReqs = 15
	for i := 0; i < highReqs; i++ {
		res, err := srv.Submit(Request{Input: in, Priority: 1, Deadline: 2 * time.Second})
		if err != nil {
			t.Fatalf("high-priority request %d rejected under low-priority overload: %v", i, err)
		}
		if res.Priority != 1 {
			t.Fatalf("high-priority request %d served as class %d", i, res.Priority)
		}
		if res.Subnet != 3 {
			t.Fatalf("high-priority request %d narrowed to subnet %d, want full ladder 3", i, res.Subnet)
		}
		if !res.DeadlineMet {
			t.Fatalf("high-priority request %d missed its deadline (latency %v)", i, res.Latency)
		}
	}
	close(stop)
	wg.Wait()

	snap := srv.Stats()
	high, low := snap.Classes[1], snap.Classes[0]
	if high.Served != highReqs || high.Rejected != 0 {
		t.Fatalf("high class: served %d rejected %d, want %d served, 0 rejected", high.Served, high.Rejected, highReqs)
	}
	if high.DeadlineHitRate < 0.99 {
		t.Fatalf("high-priority deadline hit rate %.3f, want ≥0.99", high.DeadlineHitRate)
	}
	if high.BySubnet[2] != highReqs {
		t.Fatalf("high-priority subnet distribution %v, want all %d at subnet 3", high.BySubnet, highReqs)
	}
	if low.Rejected == 0 {
		t.Fatal("a 40-submitter overload must shed low-priority traffic")
	}
	narrowedLow := low.BySubnet[0] + low.BySubnet[1]
	if narrowedLow == 0 {
		t.Fatal("overload must narrow low-priority answers below the full ladder")
	}
	// Global counters must still reconcile with the class breakdown.
	if low.Served+high.Served != snap.Served || low.Rejected+high.Rejected != snap.Rejected {
		t.Fatalf("class counters don't sum to globals: %+v", snap)
	}
}

// TestOverloadDegradesGracefully offers a burst far beyond capacity:
// the server must answer or reject every request (no hangs, no
// unbounded queue) and the overload must visibly shift answers below
// the full ladder or reject at the brim — never both full-width AND
// unbounded.
func TestOverloadDegradesGracefully(t *testing.T) {
	m := buildModel(10)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, QueueDepth: 4,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
		// Stall each batch so the burst genuinely outruns capacity
		// even on a machine that would otherwise drain it instantly.
		ServeDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const burst = 48
	subnets := make(chan int, burst)
	rejected := make(chan struct{}, burst)
	var wg sync.WaitGroup
	in := inputVec(11, srv.imgLen)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := srv.Submit(Request{Input: in})
			switch {
			case err == nil:
				subnets <- res.Subnet
			case errors.Is(err, ErrOverloaded):
				rejected <- struct{}{}
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	close(subnets)
	close(rejected)

	served, narrowed := 0, 0
	for s := range subnets {
		served++
		if s < 3 {
			narrowed++
		}
	}
	nRejected := len(rejected)
	if served+nRejected != burst {
		t.Fatalf("served %d + rejected %d != burst %d", served, nRejected, burst)
	}
	if nRejected == 0 {
		t.Fatal("a 12× overload burst against a 4-deep queue must reject at the brim")
	}
	if narrowed == 0 {
		t.Fatal("overload must shift answers below the full ladder (load shedding)")
	}
	snap := srv.Stats()
	if snap.Served != int64(served) || snap.Rejected != int64(nRejected) {
		t.Fatalf("stats (%d served, %d rejected) disagree with observed (%d, %d)",
			snap.Served, snap.Rejected, served, nRejected)
	}
}

// TestAdmissionControlRejectsUnmeetableDeadlines: once the service-
// time EWMA is warm and a backlog exists, a request whose deadline
// the predicted queue wait alone already blows must fail fast with
// ErrOverloaded instead of being served late.
func TestAdmissionControlRejectsUnmeetableDeadlines(t *testing.T) {
	m := buildModel(16)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, QueueDepth: 32,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
		ServeDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	in := inputVec(17, srv.imgLen)

	// Warm the EWMA with one served request (~5ms service time).
	if _, err := srv.Submit(Request{Input: in}); err != nil {
		t.Fatal(err)
	}
	// Build a backlog of patient requests.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Submit(Request{Input: in}) //nolint:errcheck — outcome irrelevant
		}()
	}
	// Let the backlog reach the queue (worker sleeps 5ms per batch, so
	// it stays non-empty for tens of ms).
	deadline := time.Now().Add(time.Second)
	for srv.Stats().QueueLen == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backlog never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// A 1ms deadline cannot survive a ≥5ms predicted wait.
	if _, err := srv.Submit(Request{Input: in, Deadline: time.Millisecond}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("unmeetable deadline admitted: err = %v", err)
	}
	wg.Wait()
}

// TestCloseDrainsAndRejects is the graceful-shutdown contract: Close
// drains every admitted request to a real answer, subsequent Submits
// fail with the typed ErrClosed, Close is idempotent, and no worker
// goroutines (or their engines' shard workers) are left behind.
func TestCloseDrainsAndRejects(t *testing.T) {
	before := runtime.NumGoroutine()

	m := buildModel(12)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 2, QueueDepth: 32, MaxBatch: 2,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	const reqs = 24
	in := inputVec(13, srv.imgLen)
	outcomes := make(chan error, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := srv.Submit(Request{Input: in})
			if err == nil && (res.Subnet < 1 || res.Subnet > 3) {
				err = errors.New("answered from invalid subnet")
			}
			outcomes <- err
		}()
	}
	// Close while the burst is in flight: admitted requests must still
	// be answered, late ones must see ErrClosed or ErrOverloaded.
	srv.Close()
	wg.Wait()
	close(outcomes)
	for err := range outcomes {
		if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("in-flight request during Close: %v", err)
		}
	}

	if _, err := srv.Submit(Request{Input: in}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent

	// At quiescence every admission attempt was either served or
	// rejected; post-Close submits count as neither.
	snap := srv.Stats()
	if snap.Submitted != snap.Served+snap.Rejected {
		t.Fatalf("counter invariant broken: submitted %d != served %d + rejected %d",
			snap.Submitted, snap.Served, snap.Rejected)
	}

	// Every worker (and its engine) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsSnapshot sanity-checks the counters a /stats consumer sees.
func TestStatsSnapshot(t *testing.T) {
	m := buildModel(14)
	srv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const reqs = 5
	for i := 0; i < reqs; i++ {
		if _, err := srv.Submit(Request{Input: inputVec(20+uint64(i), srv.imgLen)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Stats()
	if snap.Submitted != reqs || snap.Served != reqs || snap.Rejected != 0 {
		t.Fatalf("counters: %+v", snap)
	}
	var bySubnet int64
	for _, c := range snap.BySubnet {
		bySubnet += c
	}
	if bySubnet != reqs {
		t.Fatalf("per-subnet histogram sums to %d, want %d", bySubnet, reqs)
	}
	if snap.DeadlineHitRate != 1 {
		t.Fatalf("hit rate %g with hour-long deadlines", snap.DeadlineHitRate)
	}
	if snap.P50Ms <= 0 || snap.P99Ms < snap.P50Ms {
		t.Fatalf("latency percentiles p50=%g p99=%g", snap.P50Ms, snap.P99Ms)
	}
	if snap.TotalMACs <= 0 || snap.QueueCap != 64 || snap.Workers != 1 {
		t.Fatalf("snapshot gauges: %+v", snap)
	}
	if len(snap.StepTimeMs) != 3 || snap.MACRate <= 0 {
		t.Fatalf("calibration fields: %+v", snap)
	}
}

// TestCalibratedServerServes exercises the real startup-calibration
// path (no injected latency model) end to end.
func TestCalibratedServerServes(t *testing.T) {
	m := buildModel(15)
	srv, err := New(Config{Model: m, Subnets: 3, Workers: 1, CalibrationReps: 1, DefaultDeadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lm := srv.Latency()
	if err := lm.Validate(); err != nil {
		t.Fatalf("calibrated model invalid: %v", err)
	}
	if lm.MACRate() <= 0 {
		t.Fatal("calibration produced a zero MAC rate")
	}
	res, err := srv.Submit(Request{Input: inputVec(16, srv.imgLen)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subnet != 3 {
		t.Fatalf("hour deadline on a warm box answered from subnet %d, want 3", res.Subnet)
	}
}
