package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/cluster/faultinject"
	"steppingnet/internal/governor"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/tensor"
)

// buildModel mirrors the serve test helper: a LeNet-3C1L with a
// random legal assignment across 3 subnets.
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

// instantSteps fabricates a latency model whose steps cost ~nothing.
func instantSteps(m *models.Model, n int) governor.LatencyModel {
	lm := governor.LatencyModel{StepMACs: governor.StepCosts(m, n), StepTime: make([]time.Duration, n)}
	for i := range lm.StepTime {
		lm.StepTime[i] = time.Nanosecond
	}
	return lm
}

// newReplica builds one in-process replica shaped like the serve
// overload tests: a single deliberately slowed worker (ServeDelay
// caps its throughput at a known rate) with two priority classes, so
// a 40-submitter low-priority storm is a reproducible 12×+ overload
// regardless of host speed. When slos is non-empty the replica also
// runs the adaptive overload governor on a fast tick, so the chaos
// storms exercise the whole closed loop. cacheEntries > 0 arms the
// replica's semantic result cache; exitMargin > 0 arms its confidence
// early exit — the chaos tests mix armed and unarmed replicas so the
// cluster invariants hold across heterogeneous fleets.
func newReplica(t *testing.T, m *models.Model, name string, serveDelay time.Duration, slos []governor.SLO, cacheEntries int, exitMargin float64) (*serve.Server, *faultinject.Injector) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 3, Workers: 1, QueueDepth: 16, MaxBatch: 4,
		PriorityClasses: 2,
		Calibration:     instantSteps(m, 3), DefaultDeadline: time.Hour,
		ServeDelay: serveDelay,
		SLOs:       slos, ControlInterval: 25 * time.Millisecond,
		CacheEntries: cacheEntries, ExitMargin: exitMargin,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, faultinject.Wrap(&cluster.Local{Srv: srv, Name: name})
}

// waitGoroutines polls until the goroutine count settles at or below
// the watermark (grace for runtime helpers), failing the test if it
// never does — the leak detector for replica death.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines never settled: %d > %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterChaosKillOneReplica is the distributed tier's acceptance
// gate, run under -race by ci.sh on both GEMM backends: three
// replicas behind the router, a sustained low-priority storm at 12×+
// the (deliberately capped) cluster capacity, and one replica killed
// abruptly mid-storm — crash injection plus its server closed, so
// in-flight work dies with it. The tier must hold three invariants:
//
//   - the high-priority class keeps a ≥99% deadline hit rate across
//     the kill (failed attempts on the dying replica retry onto the
//     survivors, which its deadline budget affords) and attains its
//     configured p99 SLO;
//   - every submitted request resolves to exactly one answer or one
//     typed error — nothing hangs, nothing is double-answered;
//   - the overload governor fires and fires in order: the sustained
//     storm drives SLO violations and brownout transitions on the
//     LOW class, and no replica ever touches the high class before
//     fully shedding class 0 (the brownout ladder's ordering
//     contract, observed end to end through the router's snapshots);
//   - replica death leaks nothing: after Close, the goroutine count
//     settles back to the pre-test watermark.
func TestClusterChaosKillOneReplica(t *testing.T) {
	before := runtime.NumGoroutine()
	m := buildModel(70)

	// Per-class SLOs: the low class's 5ms p99 target is unmeetable
	// under a sustained storm against 4ms batches (brownout must
	// fire); the high class's target matches its 2s request deadline
	// (attainment below is implied by the ≥99% hit-rate gate).
	const highP99Target = 2 * time.Second
	slos := []governor.SLO{
		{P99Target: 5 * time.Millisecond},
		{P99Target: highP99Target, MinHitRate: 0.99},
	}
	var (
		servers   []*serve.Server
		injectors []*faultinject.Injector
		backends  []cluster.Backend
	)
	// Randomly arm the semantic cache and early exit per replica
	// (seeded — the mix is reproducible), forcing at least one storm
	// SURVIVOR to run the cache so hit propagation through the router
	// snapshots is observable. Heterogeneous arming is the point: the
	// tier's invariants cannot depend on which replicas cache.
	arm := rand.New(rand.NewSource(0xCAC4E))
	for i := 0; i < 3; i++ {
		cacheEntries, exitMargin := 0, 0.0
		if i == 1 || arm.Intn(2) == 1 {
			cacheEntries = 8
		}
		if arm.Intn(2) == 1 {
			exitMargin = 0.25 + arm.Float64()
		}
		srv, inj := newReplica(t, m, fmt.Sprintf("replica%d", i), 4*time.Millisecond, slos, cacheEntries, exitMargin)
		servers = append(servers, srv)
		injectors = append(injectors, inj)
		backends = append(backends, inj)
	}
	// Affinity armed (the -affinity configuration): the storm repeats
	// ONE input, so rendezvous hashing concentrates it on a single
	// replica until the bounded-load spill redistributes — the
	// invariants below must survive that concentration AND the kill of
	// whichever replica the key pins.
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      backends,
		ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond,
		DownAfter: 2, ReadmitAfter: 3,
		BreakerThreshold: 3, BreakerCooldown: 200 * time.Millisecond,
		Affinity: true, AffinitySpillFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	in := inputVec(71, 64)

	// Sustained low-priority pressure: closed-loop submitters that
	// resubmit until told to stop, counting every outcome. 4ms batches
	// cap each replica at ~1k req/s (3k cluster-wide); 40 submitters
	// cycling at ≥1k attempts/s each offer ~40k/s — a sustained 12×+
	// overload. The 1ms shed backoff keeps the storm from starving the
	// serving goroutines on small hosts without relieving the
	// pressure.
	const lowWorkers = 40
	var (
		wg        sync.WaitGroup
		lowSent   atomic.Int64
		lowOK     atomic.Int64
		lowShed   atomic.Int64
		lowFailed atomic.Int64
	)
	stop := make(chan struct{})
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
				lowSent.Add(1)
				_, err := ro.Submit(serve.Request{Input: in, Priority: 0, Deadline: 50 * time.Millisecond})
				switch {
				case err == nil:
					lowOK.Add(1)
				case errors.Is(err, serve.ErrOverloaded), errors.Is(err, cluster.ErrNoReplicas):
					lowShed.Add(1)
					time.Sleep(time.Millisecond)
				case errors.Is(err, cluster.ErrTransport), errors.Is(err, serve.ErrClosed):
					// Expected while replica0 is dying with requests in
					// flight (or when the remaining 50ms cannot afford a
					// retry elsewhere).
					lowFailed.Add(1)
				default:
					t.Errorf("low-priority submit: unexpected error %v", err)
					lowFailed.Add(1)
				}
			}
		}()
	}

	// Wait until the storm is really pressing on the cluster: replicas
	// refusing low-priority work because their queue shares are full. A
	// queue length is the wrong thing to wait for: once a cache-armed
	// replica the key pins holds the input's top rung it answers the
	// repeats before its queue, so queues can stay short for the rest of
	// the storm while the replicas the spill feeds go on refusing.
	refusals := func() (n int64) {
		for _, r := range ro.Stats().Replicas {
			n += r.Rejected
		}
		return n
	}
	waitUntil := time.Now().Add(5 * time.Second)
	for refusals() < lowWorkers {
		if time.Now().After(waitUntil) {
			close(stop)
			wg.Wait()
			t.Fatalf("the storm never pressed: %d low-priority refusals", refusals())
		}
		time.Sleep(time.Millisecond)
	}
	pressed := refusals()

	// The protected class: 100 sequential requests; replica0 is killed
	// abruptly after the 30th — crash injection first (every in-flight
	// and future exchange fails), then its server closed (its worker
	// and former goroutines die with requests queued).
	const highReqs = 100
	const killAt = 30
	highMet := 0
	highLats := make([]time.Duration, 0, highReqs)
	for i := 0; i < highReqs; i++ {
		if i == killAt {
			injectors[0].Inject(faultinject.Fault{Kind: faultinject.Crash})
			servers[0].Close()
		}
		res, err := ro.Submit(serve.Request{Input: in, Priority: 1, Deadline: highP99Target})
		if err != nil {
			t.Fatalf("high-priority request %d failed across the kill: %v", i, err)
		}
		if res.Priority != 1 {
			t.Fatalf("high-priority request %d served as class %d", i, res.Priority)
		}
		if res.DeadlineMet {
			highMet++
		}
		highLats = append(highLats, res.Latency)
	}
	if rate := float64(highMet) / highReqs; rate < 0.99 {
		t.Fatalf("high-priority deadline hit rate %.3f across replica kill, want ≥0.99", rate)
	}

	// A handful of malformed requests (wrong input geometry): each
	// must come back as a typed ErrBadInput after exactly one
	// dispatch, and land on the per-replica bad_input counter so the
	// exact-accounting check below can include them.
	const badReqs = 5
	for i := 0; i < badReqs; i++ {
		_, err := ro.Submit(serve.Request{Input: []float64{1, 2, 3}, Priority: 1, Deadline: time.Second})
		if !errors.Is(err, serve.ErrBadInput) {
			t.Fatalf("malformed request %d: got %v, want ErrBadInput", i, err)
		}
	}
	// SLO attainment, client-measured: with ≥99/100 answers inside the
	// deadline, the nearest-rank p99 must sit at or under the target.
	sort.Slice(highLats, func(i, j int) bool { return highLats[i] < highLats[j] })
	if p99 := highLats[98]; p99 > highP99Target {
		t.Fatalf("high-priority p99 %v blew its %v SLO across the kill", p99, highP99Target)
	}

	// The storm is still running: sustained 5ms-target violations on
	// the low class must drive the governor into brownout on some
	// replica. Poll the router's replica snapshots (the operator's
	// view) until violations and transitions surface.
	brownoutSettle := time.Now().Add(5 * time.Second)
	for {
		// Router view (the wire-propagated ReplicaStats fields) and
		// the replicas' own class-0 counters must both surface it.
		st := ro.Stats()
		var viol, trans int64
		for _, r := range st.Replicas {
			viol += r.SLOViolations
			trans += r.BrownoutTransitions
		}
		var viol0, trans0 int64
		for _, srv := range servers {
			snap := srv.Stats()
			viol0 += snap.Classes[0].SLOViolations
			trans0 += snap.Classes[0].BrownoutTransitions
		}
		if viol > 0 && trans > 0 && viol0 > 0 && trans0 > 0 {
			break
		}
		if time.Now().After(brownoutSettle) {
			t.Fatalf("governor never fired under a sustained SLO-violating storm: router view %d/%d, class 0 %d/%d",
				viol, trans, viol0, trans0)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The prober must have ejected the dead replica by now.
	probeSettle := time.Now().Add(2 * time.Second)
	for ro.Stats().Replicas[0].Up {
		if time.Now().After(probeSettle) {
			t.Fatal("killed replica still marked up after the storm")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := ro.Available(); got < 1 || got > 2 {
		t.Fatalf("Available = %d after killing 1 of 3, want 1..2", got)
	}

	close(stop)
	wg.Wait()

	// Exactly-one-outcome accounting, client side and router side.
	if got := lowOK.Load() + lowShed.Load() + lowFailed.Load(); got != lowSent.Load() {
		t.Fatalf("low-class outcomes %d != submits %d (hang or double answer)", got, lowSent.Load())
	}
	st := ro.Stats()
	if st.Submitted != lowSent.Load()+highReqs+badReqs {
		t.Fatalf("router saw %d submits, clients sent %d", st.Submitted, lowSent.Load()+highReqs+badReqs)
	}
	if st.Served != lowOK.Load()+highReqs {
		t.Fatalf("router served %d, clients got %d answers", st.Served, lowOK.Load()+highReqs)
	}
	if st.Served+st.Failed != st.Submitted {
		t.Fatalf("router accounting: served %d + failed %d != submitted %d", st.Served, st.Failed, st.Submitted)
	}
	// The pressure lasted the whole storm. (Clients need not see it: an
	// attempt refused on the replica the spill fed is retried, and the
	// replica the key pins may answer it from its cache.)
	if refusals() <= pressed {
		t.Fatalf("no low-priority work was refused after the first %d refusals: the storm stopped pressing", pressed)
	}
	// Per-replica exact accounting: every dispatch resolved to exactly
	// one of the four outcome counters — including the bad_input arm,
	// which used to fall through uncounted.
	var badTotal, affinityHits int64
	for _, r := range st.Replicas {
		if got := r.Success + r.Rejected + r.TransportErrors + r.BadInputs; got != r.Dispatches {
			t.Fatalf("replica %s outcomes %d != dispatches %d: %+v", r.Target, got, r.Dispatches, r)
		}
		badTotal += r.BadInputs
		affinityHits += r.AffinityHits
	}
	if badTotal != badReqs {
		t.Fatalf("bad_input dispatches %d across replicas, want %d", badTotal, badReqs)
	}
	if st.AffinityRouted != affinityHits {
		t.Fatalf("router AffinityRouted %d != summed per-replica hits %d", st.AffinityRouted, affinityHits)
	}
	if st.AffinityRouted == 0 {
		t.Fatal("a keyed storm through an affinity router never hit an HRW choice")
	}
	if st.AffinitySpilled == 0 {
		t.Fatal("a 12× single-key storm never tripped the bounded-load spill")
	}

	// Brownout ordering, per replica: class 0's ladder (3 subnets,
	// floor 1) is 6 levels deep — 2 narrow halvings + 3 admission
	// doublings + 1 shed — and the controller only ever touches class
	// 1 after walking class 0 all the way down. So any high-class
	// transition implies at least 6 low-class escalations first, and
	// the violations themselves must concentrate in the low class.
	var viol0, trans0 int64
	for i, srv := range servers {
		snap := srv.Stats()
		c0, c1 := snap.Classes[0], snap.Classes[1]
		if c1.BrownoutTransitions > 0 && c0.BrownoutTransitions < 6 {
			t.Fatalf("replica%d browned the high class after only %d low-class transitions (want ≥6 first)",
				i, c0.BrownoutTransitions)
		}
		viol0 += c0.SLOViolations
		trans0 += c0.BrownoutTransitions
		if snap.Policy == nil {
			t.Fatalf("replica%d: governed server snapshot has no policy block", i)
		}
	}
	if viol0 == 0 || trans0 == 0 {
		t.Fatalf("low class never tripped its SLO under the storm: violations=%d transitions=%d", viol0, trans0)
	}

	// The storm repeats one input, so the cache-armed survivor must
	// have served hits or resumes — and they must propagate through
	// the probe snapshots into the router's operator view.
	if snap := servers[1].Stats(); !snap.CacheEnabled || snap.CacheHits+snap.CacheResumes == 0 {
		t.Fatalf("cache-armed survivor saw no hits or resumes under a single-key storm: %+v", snap)
	}
	var routerHits int64
	for _, r := range st.Replicas {
		routerHits += r.CacheHits + r.CacheResumes
	}
	if routerHits == 0 {
		t.Fatal("replica cache activity never surfaced in the router's ReplicaStats")
	}

	// Replica death leaks nothing: close everything (replica0 again —
	// Close is idempotent) and require the goroutine count to settle.
	ro.Close()
	waitGoroutines(t, before+4)
}

// TestExactlyOneAnswerUnderRandomFaults drives the seeded
// fault-injection harness end to end: every replica runs a different
// reproducible schedule of hangs, slowdowns, error bursts and
// partitions (faultinject.Random — same seed, same storm), while
// concurrent submitters with randomized priorities and deadlines
// hammer the router. Whatever the schedule does, the contract holds:
// every Submit returns exactly once with an answer or a typed error,
// and teardown releases every goroutine.
func TestExactlyOneAnswerUnderRandomFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	m := buildModel(80)

	const seed = 0xFA017
	var backends []cluster.Backend
	var servers []*serve.Server
	// Governed replicas: the random fault schedules must not be able
	// to wedge or corrupt the control loop either.
	slos := []governor.SLO{{P99Target: 5 * time.Millisecond}, {MinHitRate: 0.9}}
	arm := rand.New(rand.NewSource(seed))
	for i := 0; i < 3; i++ {
		cacheEntries, exitMargin := 0, 0.0
		if arm.Intn(2) == 1 {
			cacheEntries = 4
		}
		if arm.Intn(2) == 1 {
			exitMargin = 0.25 + arm.Float64()
		}
		srv, inj := newReplica(t, m, fmt.Sprintf("replica%d", i), 200*time.Microsecond, slos, cacheEntries, exitMargin)
		servers = append(servers, srv)
		for _, f := range faultinject.Random(seed+int64(i), time.Second, 5) {
			inj.Inject(f)
		}
		backends = append(backends, inj)
	}
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      backends,
		ProbeInterval: 10 * time.Millisecond, ProbeTimeout: 100 * time.Millisecond,
		DownAfter: 2, ReadmitAfter: 2,
		BreakerThreshold: 3, BreakerCooldown: 100 * time.Millisecond,
		Affinity: true, AffinitySpillFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	in := inputVec(81, 64)

	const submitters = 24
	const perSubmitter = 8
	var (
		wg      sync.WaitGroup
		done    atomic.Int64
		answers atomic.Int64
	)
	deadlines := []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, time.Second}
	for i := 0; i < submitters; i++ {
		sub := rand.New(rand.NewSource(seed + 100 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				res, err := ro.Submit(serve.Request{
					Input:    in,
					Deadline: deadlines[sub.Intn(len(deadlines))],
					Priority: sub.Intn(2),
				})
				switch {
				case err == nil:
					if res.Subnet < 1 || res.Subnet > 3 {
						t.Errorf("answered from subnet %d", res.Subnet)
					}
					answers.Add(1)
				case errors.Is(err, serve.ErrOverloaded),
					errors.Is(err, cluster.ErrTransport),
					errors.Is(err, cluster.ErrNoReplicas),
					errors.Is(err, serve.ErrClosed):
					// Typed, expected under injected chaos.
				default:
					t.Errorf("untyped error escaped the router: %v", err)
				}
				done.Add(1)
			}
		}()
	}

	// Watchdog: the storm must drain — a hang is exactly the bug the
	// harness exists to catch.
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		t.Fatalf("storm wedged: %d/%d submits resolved", done.Load(), submitters*perSubmitter)
	}
	if got := done.Load(); got != submitters*perSubmitter {
		t.Fatalf("outcomes %d != submits %d", got, submitters*perSubmitter)
	}
	if answers.Load() == 0 {
		t.Fatal("no request ever succeeded — the schedule should leave healthy windows")
	}

	ro.Close()
	// Closing the router drained every replica: each one's books must
	// balance, answers given before the queue included.
	for i, srv := range servers {
		if snap := srv.Stats(); snap.Submitted != snap.Served+snap.Rejected || snap.InlineHits > snap.CacheHits {
			t.Fatalf("replica %d: submitted %d != served %d + rejected %d, or %d of %d hits answered before the queue",
				i, snap.Submitted, snap.Served, snap.Rejected, snap.InlineHits, snap.CacheHits)
		}
	}
	waitGoroutines(t, before+4)
}

// TestLocalBackendLifecycle pins the Local adapter's health contract:
// healthy while the wrapped server admits work, serve.ErrClosed from
// Health and Submit once it drains.
func TestLocalBackendLifecycle(t *testing.T) {
	m := buildModel(90)
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 3, Workers: 1,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := &cluster.Local{Srv: srv, Name: "solo"}
	ctx := t.Context()
	if err := b.Health(ctx); err != nil {
		t.Fatalf("open server reported unhealthy: %v", err)
	}
	res, err := b.Submit(ctx, serve.Request{Input: inputVec(91, 64)})
	if err != nil || res.Subnet != 3 {
		t.Fatalf("submit = %+v, %v", res, err)
	}
	snap, err := b.Stats(ctx)
	if err != nil || snap.Served != 1 {
		t.Fatalf("stats = %+v, %v", snap, err)
	}
	if snap.MinSubnet != 1 || len(snap.StepTimeMs) != 3 {
		t.Fatalf("snapshot missing routing fields: %+v", snap)
	}
	b.Close()
	if err := b.Health(ctx); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("closed server Health = %v, want ErrClosed", err)
	}
	if _, err := b.Submit(ctx, serve.Request{Input: inputVec(91, 64)}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("closed server Submit = %v, want ErrClosed", err)
	}
}
