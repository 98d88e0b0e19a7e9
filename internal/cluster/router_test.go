package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steppingnet/internal/serve"
)

// fakeBackend is a fully scripted Backend: tests flip its health and
// submit behavior to drive the router's prober, breaker and retry
// paths deterministically, with no model, engine or clock dependence.
type fakeBackend struct {
	name string

	mu          sync.Mutex
	healthErr   error
	submitErr   error
	submitDelay time.Duration
	snap        serve.Snapshot

	submits  atomic.Int64
	deadline atomic.Int64 // the last request's Deadline, as dispatched
	closed   atomic.Bool
}

func (f *fakeBackend) setHealth(err error)      { f.mu.Lock(); f.healthErr = err; f.mu.Unlock() }
func (f *fakeBackend) setSubmitErr(err error)   { f.mu.Lock(); f.submitErr = err; f.mu.Unlock() }
func (f *fakeBackend) setDelay(d time.Duration) { f.mu.Lock(); f.submitDelay = d; f.mu.Unlock() }

func (f *fakeBackend) Submit(_ context.Context, req serve.Request) (serve.Result, error) {
	f.submits.Add(1)
	f.deadline.Store(int64(req.Deadline))
	f.mu.Lock()
	d, err := f.submitDelay, f.submitErr
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	if err != nil {
		return serve.Result{}, err
	}
	return serve.Result{
		Subnet: 1, Pred: 0, Logits: []float64{1, 0},
		Priority: req.Priority, DeadlineMet: true,
	}, nil
}

func (f *fakeBackend) Stats(context.Context) (serve.Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap, nil
}

func (f *fakeBackend) Health(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.healthErr
}

func (f *fakeBackend) Target() string { return f.name }
func (f *fakeBackend) Close()         { f.closed.Store(true) }

// snap fabricates a routing snapshot: queueLen orders the backlog
// scores (so tests pin which replica a first attempt picks) and
// stepMs fixes the calibrated walk floor the retry-affordability gate
// prices against.
func snap(queueLen int, stepMs ...float64) serve.Snapshot {
	return serve.Snapshot{
		QueueLen: queueLen, Workers: 1, ServiceEwmaMs: 1,
		MinSubnet: 1, StepTimeMs: stepMs,
	}
}

func TestWalkFloor(t *testing.T) {
	if got := walkFloor(serve.Snapshot{}); got != 0 {
		t.Fatalf("uncalibrated floor = %v, want 0", got)
	}
	// MinSubnet 2 over steps {1ms, 2ms, 3ms}: the cheapest answer
	// walks steps 1 and 2 → 3ms.
	s := serve.Snapshot{StepTimeMs: []float64{1, 2, 3}, MinSubnet: 2}
	if got := walkFloor(s); got != 3*time.Millisecond {
		t.Fatalf("floor = %v, want 3ms", got)
	}
	// Out-of-range MinSubnet clamps to the ladder.
	s.MinSubnet = 99
	if got := walkFloor(s); got != 6*time.Millisecond {
		t.Fatalf("clamped-high floor = %v, want 6ms", got)
	}
	s.MinSubnet = 0
	if got := walkFloor(s); got != time.Millisecond {
		t.Fatalf("clamped-low floor = %v, want 1ms", got)
	}
}

// newTestRouter builds a probe-less router over the given fakes with
// fast, deterministic settings; tests drive probeOnce by hand.
func newTestRouter(t *testing.T, cfg RouterConfig, fakes ...*fakeBackend) *Router {
	t.Helper()
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f)
	}
	cfg.ProbeInterval = -1 // no background probing: tests own the clock
	ro, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ro.Close)
	return ro
}

// TestRetryDeadlineAware pins the acceptance property "never retry a
// request whose remaining deadline cannot afford the target replica's
// minimum walk" with injected calibration: replica A always fails
// with a transport error; replica B succeeds. While B's calibrated
// floor is cheap, a failed attempt on A is retried on B and served;
// when B's cached calibration says even its narrowest answer costs
// 10 s, the same failure is NOT retried — the router returns A's
// transport error instead of wasting B's capacity on a guaranteed
// miss.
func TestRetryDeadlineAware(t *testing.T) {
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.setSubmitErr(fmt.Errorf("%w: synthetic", ErrTransport))
	ro := newTestRouter(t, RouterConfig{}, a, b)

	// A scores 0 (empty queue) so every first attempt lands there; B's
	// fabricated backlog keeps it the retry target only.
	ro.replicas[0].storeSnap(snap(0, 0.001))
	ro.replicas[1].storeSnap(snap(10, 0.001))

	res, err := ro.Submit(serve.Request{Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("cheap-floor retry failed: %v", err)
	}
	if res.Subnet != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	if got := ro.retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := b.submits.Load(); got != 1 {
		t.Fatalf("replica b submits = %d, want 1", got)
	}

	// Same failure, but B's calibration now prices its cheapest walk
	// at 10s — far past the 50ms deadline. No retry may fire.
	ro.replicas[1].storeSnap(snap(10, 10_000))
	_, err = ro.Submit(serve.Request{Deadline: 50 * time.Millisecond})
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("unaffordable retry: got %v, want the original transport error", err)
	}
	if got := ro.retries.Load(); got != 1 {
		t.Fatalf("retries = %d after unaffordable case, want still 1", got)
	}
	if got := b.submits.Load(); got != 1 {
		t.Fatalf("replica b submits = %d, want still 1 (no retry dispatched)", got)
	}

	st := ro.Stats()
	if st.Replicas[0].TransportErrors != 2 || st.Replicas[1].Success != 1 {
		t.Fatalf("stats mismatch: %+v", st.Replicas)
	}
}

// TestRetryForwardsRemainingBudget pins what a second attempt is told
// about the deadline: what is left of it. Replica A sits on the request
// for a while and fails; the retry on B must be handed strictly less
// than the client's budget — less by at least A's delay — and, with the
// budget all but gone, still something positive (zero would mean "the
// replica's default"). Through a Remote the same holds for the
// deadline_ms the far side decodes.
func TestRetryForwardsRemainingBudget(t *testing.T) {
	const budget, stall = 2 * time.Second, 20 * time.Millisecond
	a := &fakeBackend{name: "a"}
	a.setSubmitErr(fmt.Errorf("%w: synthetic", ErrTransport))
	a.setDelay(stall)
	b := &fakeBackend{name: "b"}
	ro := newTestRouter(t, RouterConfig{}, a, b)
	ro.replicas[0].storeSnap(snap(0, 0.001)) // first attempts land on A
	ro.replicas[1].storeSnap(snap(10, 0.001))
	if _, err := ro.Submit(serve.Request{Deadline: budget}); err != nil {
		t.Fatal(err)
	}
	first, second := time.Duration(a.deadline.Load()), time.Duration(b.deadline.Load())
	if first <= 0 || first > budget || second <= 0 || second > first-stall {
		t.Fatalf("attempts were handed %v then %v of a %v budget with a %v stall between them", first, second, budget, stall)
	}

	// The replica end of a Remote: a handler whose Submit notes the
	// deadline it decoded.
	var seen atomic.Int64
	replica := httptest.NewServer(&InferHandler{Submit: func(req serve.Request) (serve.Result, error) {
		seen.Store(int64(req.Deadline))
		return serve.Result{Subnet: 1, Logits: []float64{1}}, nil
	}})
	defer replica.Close()
	ro = newTestRouter(t, RouterConfig{Backends: []Backend{a, NewRemote(replica.URL)}})
	ro.replicas[0].storeSnap(snap(0, 0.001))
	ro.replicas[1].storeSnap(snap(10, 0.001))
	if _, err := ro.Submit(serve.Request{Input: []float64{1}, Deadline: budget}); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(seen.Load()); got <= 0 || got > budget-stall {
		t.Fatalf("the replica behind the Remote decoded a %v deadline on the retry of a %v request stalled %v", got, budget, stall)
	}

	// Nothing left: the attempt still carries a positive deadline.
	past := time.Now().Add(-time.Second)
	ro.dispatch(ro.replicas[0], serve.Request{Deadline: budget}, past, false)
	if got := time.Duration(a.deadline.Load()); got != 1 {
		t.Fatalf("an attempt past its deadline was handed %v, want the smallest positive duration", got)
	}
}

// TestReadmitAfterConsecutiveProbes pins the prober's admission
// hysteresis: DownAfter consecutive failures eject a replica (with
// probe backoff growing exponentially), and re-admission requires
// ReadmitAfter consecutive successes — one lucky probe against a
// flapping replica is not enough, and any failure in between resets
// the run.
func TestReadmitAfterConsecutiveProbes(t *testing.T) {
	f := &fakeBackend{name: "flappy"}
	ro := newTestRouter(t, RouterConfig{
		DownAfter: 2, ReadmitAfter: 3,
		ProbeBackoffMax: 4 * 500 * time.Millisecond,
	}, f)
	r := ro.replicas[0]

	up := func() bool { r.mu.Lock(); defer r.mu.Unlock(); return r.up }
	backoff := func() time.Duration { r.mu.Lock(); defer r.mu.Unlock(); return r.backoff }

	f.setHealth(errors.New("probe refused"))
	ro.probeOnce(r)
	if !up() {
		t.Fatal("one probe failure must not eject (DownAfter=2)")
	}
	ro.probeOnce(r)
	if up() {
		t.Fatal("two consecutive probe failures must eject")
	}
	if ro.Available() != 0 {
		t.Fatalf("Available = %d with the only replica down", ro.Available())
	}
	// Backoff doubled per failure: base 500ms → 1s → 2s.
	if got := backoff(); got != 2*time.Second {
		t.Fatalf("probe backoff = %v after two failures, want 2s", got)
	}
	ro.probeOnce(r)
	ro.probeOnce(r)
	if got := backoff(); got != 4*500*time.Millisecond {
		t.Fatalf("probe backoff = %v, want capped at %v", got, 4*500*time.Millisecond)
	}

	// Two successes: not enough (ReadmitAfter=3), but backoff resets.
	f.setHealth(nil)
	ro.probeOnce(r)
	ro.probeOnce(r)
	if up() {
		t.Fatal("re-admitted after only 2 consecutive successful probes, want 3")
	}
	if got := backoff(); got != 0 {
		t.Fatalf("probe backoff = %v after success, want reset to 0", got)
	}

	// A failure in between resets the success run.
	f.setHealth(errors.New("flap"))
	ro.probeOnce(r)
	f.setHealth(nil)
	ro.probeOnce(r)
	ro.probeOnce(r)
	if up() {
		t.Fatal("success run must restart after an interleaved failure")
	}
	ro.probeOnce(r)
	if !up() {
		t.Fatal("three consecutive successful probes must re-admit")
	}
	if ro.Available() != 1 {
		t.Fatalf("Available = %d after re-admission, want 1", ro.Available())
	}
}

// TestBreakerStateMachine pins the per-replica circuit: consecutive
// submit failures open it, an open circuit rejects instantly without
// touching the replica, the cooldown admits exactly one half-open
// trial, and that trial's outcome closes or re-opens the circuit.
func TestBreakerStateMachine(t *testing.T) {
	f := &fakeBackend{name: "breaker"}
	f.setSubmitErr(fmt.Errorf("%w: down", ErrTransport))
	const cooldown = 40 * time.Millisecond
	ro := newTestRouter(t, RouterConfig{
		BreakerThreshold: 2, BreakerCooldown: cooldown,
	}, f)

	brState := func() string { return ro.Stats().Replicas[0].Breaker }

	for i := 0; i < 2; i++ {
		if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); !errors.Is(err, ErrTransport) {
			t.Fatalf("submit %d: got %v, want transport error", i, err)
		}
	}
	if got := brState(); got != "open" {
		t.Fatalf("breaker = %q after %d consecutive failures, want open", got, 2)
	}

	// Open circuit: the replica is not even tried.
	before := f.submits.Load()
	if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("open-circuit submit: got %v, want ErrNoReplicas", err)
	}
	if f.submits.Load() != before {
		t.Fatal("open circuit must not dispatch to the replica")
	}

	// Cooldown elapses; the half-open trial fails → straight back to
	// open, no threshold accumulation needed.
	time.Sleep(cooldown + 5*time.Millisecond)
	if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); !errors.Is(err, ErrTransport) {
		t.Fatalf("half-open trial: got %v, want transport error", err)
	}
	if got := brState(); got != "open" {
		t.Fatalf("breaker = %q after failed half-open trial, want open", got)
	}

	// Next cooldown: the trial succeeds → closed, traffic flows.
	f.setSubmitErr(nil)
	time.Sleep(cooldown + 5*time.Millisecond)
	if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); err != nil {
		t.Fatalf("recovering half-open trial failed: %v", err)
	}
	if got := brState(); got != "closed" {
		t.Fatalf("breaker = %q after successful trial, want closed", got)
	}
	if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); err != nil {
		t.Fatalf("closed-circuit submit failed: %v", err)
	}
}

// TestOverloadIsNotBreakerEvidence pins the distinction between a
// dead replica and a busy one: typed ErrOverloaded refusals never
// open the circuit, however many arrive in a row — ejecting a replica
// for defending itself would dogpile its peers.
func TestOverloadIsNotBreakerEvidence(t *testing.T) {
	f := &fakeBackend{name: "busy"}
	f.setSubmitErr(fmt.Errorf("%w: queue full", serve.ErrOverloaded))
	ro := newTestRouter(t, RouterConfig{BreakerThreshold: 2}, f)

	for i := 0; i < 6; i++ {
		if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("submit %d: got %v, want ErrOverloaded passed through", i, err)
		}
	}
	if got := ro.Stats().Replicas[0].Breaker; got != "closed" {
		t.Fatalf("breaker = %q after overload refusals, want closed", got)
	}
	if got := ro.Stats().Replicas[0].Rejected; got != 6 {
		t.Fatalf("rejected = %d, want 6", got)
	}
}

// TestBadInputNeverRetries pins the permanent-error classification: a
// request rejected for its own shape is returned immediately, with no
// second replica tried and no breaker movement.
func TestBadInputNeverRetries(t *testing.T) {
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.setSubmitErr(fmt.Errorf("%w: wrong geometry", serve.ErrBadInput))
	ro := newTestRouter(t, RouterConfig{}, a, b)
	ro.replicas[0].storeSnap(snap(0))
	ro.replicas[1].storeSnap(snap(10))

	if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); !errors.Is(err, serve.ErrBadInput) {
		t.Fatalf("got %v, want ErrBadInput", err)
	}
	if got := b.submits.Load(); got != 0 {
		t.Fatalf("replica b submits = %d, want 0 (bad input is not retriable)", got)
	}
	if got := ro.Stats().Replicas[0].Breaker; got != "closed" {
		t.Fatalf("breaker = %q, want closed (bad input says nothing about the replica)", got)
	}
}

// TestLeastBacklogPick pins the routing objective: with equal floors
// and health, traffic goes to the replica whose cached snapshot
// predicts the smallest backlog.
func TestLeastBacklogPick(t *testing.T) {
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	ro := newTestRouter(t, RouterConfig{}, a, b)
	ro.replicas[0].storeSnap(snap(12))
	ro.replicas[1].storeSnap(snap(1))

	for i := 0; i < 5; i++ {
		if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.submits.Load(); got != 5 {
		t.Fatalf("least-backlogged replica served %d of 5", got)
	}
	if got := a.submits.Load(); got != 0 {
		t.Fatalf("backlogged replica served %d, want 0", got)
	}
}

// TestRouterConfigValidation pins the constructor's contract.
func TestRouterConfigValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("want error for empty backend list")
	}
	if _, err := NewRouter(RouterConfig{
		Backends: []Backend{&fakeBackend{name: "a"}}, ProbeInterval: -1,
		Affinity: true, AffinitySpillFactor: 0.5,
	}); err == nil {
		t.Fatal("want error for a spill factor < 1 (it would demote even the least-loaded replica)")
	}
}

// TestPickSurvivesWrappedRotationCounter is the regression test for
// the rotation-offset bug: the tie-break counter is a monotonically
// incremented int64, and converting it to int yields a NEGATIVE
// offset once it exceeds math.MaxInt (guaranteed within hours on a
// 32-bit int, eventually everywhere) — the unnormalized
// (offset+i)%n then indexed the replica slice at a negative
// position and panicked. Pre-wrap the counter to both danger zones
// and require picks to keep working.
func TestPickSurvivesWrappedRotationCounter(t *testing.T) {
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	c := &fakeBackend{name: "c"}
	ro := newTestRouter(t, RouterConfig{}, a, b, c)

	for _, pre := range []int64{-8, math.MinInt64, math.MaxInt32 - 1, math.MaxInt64 - 1} {
		ro.rr.Store(pre)
		for i := 0; i < 4; i++ { // cross the wrap boundary itself, too
			if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); err != nil {
				t.Fatalf("submit with rotation counter pre-set to %d: %v", pre, err)
			}
		}
	}
}

// TestProbeSnapshotOrdering is the regression test for the stale-
// probe overwrite: probe A starts, stalls mid-exchange, and finishes
// AFTER a later probe B has already published a fresher snapshot —
// A's stale snapshot (and the walk floor derived from it) must be
// dropped, not stored. The probes are driven by hand through the
// begin/finish seam probeOnce uses.
func TestProbeSnapshotOrdering(t *testing.T) {
	f := &fakeBackend{name: "slowprobe"}
	ro := newTestRouter(t, RouterConfig{}, f)
	r := ro.replicas[0]

	seqA := r.probeSeq.Add(1) // probe A begins its exchange first...
	seqB := r.probeSeq.Add(1) // ...then probe B begins
	fresh := snap(2, 5)       // B observes the replica later: fresher
	stale := snap(40, 500)    // A's view from before re-admission
	ro.finishProbe(r, seqB, nil, fresh, nil)
	ro.finishProbe(r, seqA, nil, stale, nil)

	got := r.snap.Load()
	if got == nil || got.QueueLen != fresh.QueueLen {
		t.Fatalf("slow probe overwrote the fresher snapshot: cached %+v, want queue %d", got, fresh.QueueLen)
	}
	if floor := time.Duration(r.floorNs.Load()); floor != 5*time.Millisecond {
		t.Fatalf("walk floor %v reflects the stale probe, want 5ms from the fresh one", floor)
	}
	// A later-started probe still updates normally.
	seqC := r.probeSeq.Add(1)
	ro.finishProbe(r, seqC, nil, snap(7, 5), nil)
	if got := r.snap.Load(); got.QueueLen != 7 {
		t.Fatalf("in-order probe failed to update the snapshot: %+v", got)
	}
}

// TestBadInputCountedInReplicaAccounting pins the accounting hole:
// an ErrBadInput dispatch consumed a replica attempt but moved no
// outcome counter, so per-replica outcomes did not sum to
// dispatches. Now they must, with the bad input on its own counter.
func TestBadInputCountedInReplicaAccounting(t *testing.T) {
	f := &fakeBackend{name: "picky"}
	f.setSubmitErr(fmt.Errorf("%w: wrong geometry", serve.ErrBadInput))
	ro := newTestRouter(t, RouterConfig{}, f)

	for i := 0; i < 3; i++ {
		if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); !errors.Is(err, serve.ErrBadInput) {
			t.Fatalf("got %v, want ErrBadInput", err)
		}
	}
	f.setSubmitErr(nil)
	if _, err := ro.Submit(serve.Request{Deadline: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	rs := ro.Stats().Replicas[0]
	if rs.BadInputs != 3 {
		t.Fatalf("BadInputs = %d, want 3", rs.BadInputs)
	}
	if got := rs.Success + rs.Rejected + rs.TransportErrors + rs.BadInputs; got != rs.Dispatches || rs.Dispatches != 4 {
		t.Fatalf("outcomes %d != dispatches %d (want both 4)", got, rs.Dispatches)
	}
}
