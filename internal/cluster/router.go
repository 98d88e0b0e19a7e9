package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
)

// Breaker states: a replica's circuit starts closed (requests flow),
// opens after BreakerThreshold consecutive failures (requests stop),
// and half-opens after BreakerCooldown — one trial request probes the
// replica, closing the circuit on success and re-opening it on
// failure.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// retryMargin pads the affordability check: a retry is dispatched to
// a replica only when the remaining deadline covers that replica's
// calibrated MinSubnet walk plus this margin.
const retryMargin = time.Millisecond

// attemptGrace extends each attempt's transport deadline beyond the
// request deadline: an anytime replica legitimately finishes its
// MinSubnet walk (and answers, marked late) slightly after the
// deadline, and canceling that answer would turn it into a spurious
// transport error.
const attemptGrace = 100 * time.Millisecond

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Backends are the replicas to route over. Required, ≥ 1. The
	// router owns them: Router.Close closes each.
	Backends []Backend
	// DefaultDeadline applies to requests that carry none (the same
	// meaning as serve.Config.DefaultDeadline, but enforced router-
	// side so retry budgeting works even for defaulted requests).
	// 0 means 50ms.
	DefaultDeadline time.Duration
	// ProbeInterval is the base health-probe cadence per replica. A
	// failing replica's probes back off exponentially from here up to
	// ProbeBackoffMax. 0 means 500ms; negative disables the probe
	// loops entirely (deterministic tests drive probes by hand).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health+stats probe exchange. 0 means 1s.
	ProbeTimeout time.Duration
	// ProbeBackoffMax caps the exponential probe backoff on a failing
	// replica. 0 means 8× ProbeInterval.
	ProbeBackoffMax time.Duration
	// DownAfter is how many consecutive probe failures eject a
	// replica from the rotation. 0 means 2.
	DownAfter int
	// ReadmitAfter is how many consecutive probe successes a
	// previously-down replica needs before it is re-admitted — one
	// lucky probe against a still-flapping replica must not send real
	// traffic back. 0 means 3.
	ReadmitAfter int
	// BreakerThreshold is how many consecutive failed submits open a
	// replica's circuit breaker. 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before
	// half-opening for a trial request. 0 means 2s.
	BreakerCooldown time.Duration
	// Affinity enables cache-affinity routing: requests that carry an
	// input are keyed with cache.KeyOf and routed by rendezvous
	// (highest-random-weight) hashing over the currently-admitted
	// replicas, so repeats of the same input land on the replica whose
	// semantic cache already holds the walk. Keyless requests fall
	// back to least-backlog spreading, and the bounded-load spill
	// (AffinitySpillFactor) keeps a hot key from drowning one replica
	// while its peers idle.
	Affinity bool
	// AffinitySpillFactor bounds the load a key may pin to its
	// affinity choice: when that replica's backlog score exceeds this
	// multiple of the mean backlog over the admitted candidates, the
	// request spills to the next replica in HRW order. Must be ≥ 1
	// (the least-loaded candidate is never above the bound, so a
	// qualifying replica always exists); 0 means 2.
	AffinitySpillFactor float64
}

// withDefaults fills zero fields and validates the rest.
func (c RouterConfig) withDefaults() (RouterConfig, error) {
	if len(c.Backends) == 0 {
		return c, fmt.Errorf("cluster: RouterConfig.Backends is required")
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 50 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeBackoffMax <= 0 {
		base := c.ProbeInterval
		if base < 0 {
			base = 500 * time.Millisecond
		}
		c.ProbeBackoffMax = 8 * base
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 3
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.AffinitySpillFactor == 0 {
		c.AffinitySpillFactor = 2
	}
	if c.AffinitySpillFactor < 1 {
		return c, fmt.Errorf("cluster: AffinitySpillFactor %v < 1 would spill away even the least-loaded replica", c.AffinitySpillFactor)
	}
	return c, nil
}

// replica is one Backend plus the router-side state that decides
// whether and when it receives traffic.
type replica struct {
	b Backend
	// id is the stable rendezvous-hash identity (a hash of the
	// backend's target name), fixed at construction so every router
	// over the same replica set agrees on each key's HRW order.
	id uint64

	// mu guards the prober and breaker state below.
	mu           sync.Mutex
	up           bool
	probeFails   int           // consecutive probe failures
	probeOKs     int           // consecutive probe successes
	backoff      time.Duration // current probe backoff (0 = base cadence)
	lastProbeErr error
	snapSeq      int64 // sequence of the probe whose snapshot is cached

	// probeSeq numbers probe exchanges at their start, so a slow
	// probe's stale snapshot can be recognized and dropped when a
	// later probe has already published a fresher one.
	probeSeq atomic.Int64

	brState     int
	brFails     int // consecutive submit failures
	brOpenUntil time.Time
	brTrialBusy bool // a half-open trial request is in flight

	// Cached routing signals, refreshed by every successful probe.
	snap    atomic.Pointer[serve.Snapshot]
	floorNs atomic.Int64 // calibrated MinSubnet walk cost

	inflight atomic.Int64

	// Outcome counters for RouterStats.
	dispatches     atomic.Int64 // attempts dispatched to this replica
	success        atomic.Int64
	rejected       atomic.Int64
	transport      atomic.Int64
	badInput       atomic.Int64 // typed ErrBadInput refusals
	retried        atomic.Int64 // attempts on this replica that were retries
	affinityHits   atomic.Int64 // first attempts routed here as the key's HRW choice
	affinitySpills atomic.Int64 // first attempts spilled AWAY from here by the load bound
	probeFailTotal atomic.Int64
}

// storeSnap caches a fresh snapshot and the derived MinSubnet walk
// floor the retry policy prices against.
func (r *replica) storeSnap(snap serve.Snapshot) {
	r.snap.Store(&snap)
	r.floorNs.Store(int64(walkFloor(snap)))
}

// backlogScore estimates the wall-clock backlog a new request would
// queue behind on this replica: (queued + in flight from this router)
// × the replica's service-time EWMA, spread over its workers. Lower
// is better; replicas without a snapshot yet score on raw in-flight
// count so they still order sensibly.
func (r *replica) backlogScore() float64 {
	occ := float64(r.inflight.Load())
	ewma, workers := 0.05, 1.0 // pre-snapshot: order by in-flight alone
	if snap := r.snap.Load(); snap != nil {
		occ += float64(snap.QueueLen)
		if snap.ServiceEwmaMs > ewma {
			ewma = snap.ServiceEwmaMs
		}
		if snap.Workers > 1 {
			workers = float64(snap.Workers)
		}
	}
	return occ * ewma / workers
}

// affordable reports whether the remaining deadline still covers this
// replica's calibrated cheapest answer (its MinSubnet walk) plus
// retryMargin — the gate every retry must pass. A replica with no
// calibration cached yet is presumed affordable (the replica's own
// admission control is the backstop).
func (r *replica) affordable(remaining time.Duration) bool {
	return remaining >= time.Duration(r.floorNs.Load())+retryMargin
}

// brCanAllow reports (without mutating) whether the breaker would let
// a request through now. Callers hold mu.
func (r *replica) brCanAllowLocked(now time.Time) bool {
	switch r.brState {
	case brClosed:
		return true
	case brOpen:
		return !now.Before(r.brOpenUntil)
	default: // half-open: one trial at a time
		return !r.brTrialBusy
	}
}

// brAcquire claims the right to send one request through the breaker,
// transitioning open→half-open when the cooldown has elapsed. Returns
// false when the circuit is open or a half-open trial is already in
// flight.
func (r *replica) brAcquire(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.brState {
	case brClosed:
		return true
	case brOpen:
		if now.Before(r.brOpenUntil) {
			return false
		}
		r.brState = brHalfOpen
		r.brTrialBusy = true
		return true
	default:
		if r.brTrialBusy {
			return false
		}
		r.brTrialBusy = true
		return true
	}
}

// brReport folds one submit outcome into the breaker: success closes
// the circuit and clears the failure run; failure re-opens a
// half-open circuit immediately and opens a closed one once the
// consecutive-failure run reaches the threshold.
func (r *replica) brReport(ok bool, now time.Time, threshold int, cooldown time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.brTrialBusy = false
	if ok {
		r.brState = brClosed
		r.brFails = 0
		return
	}
	r.brFails++
	if r.brState == brHalfOpen || r.brFails >= threshold {
		r.brState = brOpen
		r.brOpenUntil = now.Add(cooldown)
	}
}

// Router spreads requests over a set of replicas — least backlog
// first, or rendezvous-hashed on the input's cache key when Affinity
// is on — keeping each replica behind a health prober and a circuit
// breaker, and re-dispatching failed attempts under a deadline-aware
// budget. Create with NewRouter, submit with Submit,
// stop with Close.
type Router struct {
	cfg      RouterConfig
	replicas []*replica

	// Router-level outcome counters.
	submitted       atomic.Int64
	served          atomic.Int64
	failed          atomic.Int64
	retries         atomic.Int64
	affinityRouted  atomic.Int64 // first attempts that landed on their key's HRW choice
	affinitySpilled atomic.Int64 // first attempts diverted by the bounded-load spill
	inputsKnown     atomic.Int64 // submits that came keyed and without their floats

	rr atomic.Int64 // rotation offset for backlog ties

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter builds a Router over the configured backends and starts
// one health-probe loop per replica (unless ProbeInterval is
// negative). Replicas start admitted — the first probe demotes dead
// ones within a probe interval, and Submit's retry path covers the
// window in between.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ro := &Router{cfg: cfg, stop: make(chan struct{})}
	for _, b := range cfg.Backends {
		ro.replicas = append(ro.replicas, &replica{b: b, id: replicaID(b.Target()), up: true})
	}
	if cfg.ProbeInterval > 0 {
		for _, r := range ro.replicas {
			ro.wg.Add(1)
			go ro.probeLoop(r)
		}
	}
	return ro, nil
}

// Close stops the probe loops and closes every backend. Idempotent.
func (ro *Router) Close() {
	ro.closeOnce.Do(func() {
		close(ro.stop)
	})
	ro.wg.Wait()
	for _, r := range ro.replicas {
		r.b.Close()
	}
}

// probeLoop drives one replica's health probes until Close: base
// cadence while healthy, exponential backoff while failing.
func (ro *Router) probeLoop(r *replica) {
	defer ro.wg.Done()
	t := time.NewTimer(0) // probe immediately at startup
	defer t.Stop()
	for {
		select {
		case <-ro.stop:
			return
		case <-t.C:
		}
		ro.probeOnce(r)
		r.mu.Lock()
		next := ro.cfg.ProbeInterval
		if r.backoff > 0 {
			next = r.backoff
		}
		r.mu.Unlock()
		t.Reset(next)
	}
}

// probeOnce runs one health+stats exchange against a replica and
// folds the outcome into its admission state: consecutive failures
// demote it (and stretch the probe backoff), and a demoted replica is
// re-admitted only after ReadmitAfter consecutive successes — with
// its breaker reset, since the health evidence is fresher than the
// failure run that opened it.
func (ro *Router) probeOnce(r *replica) {
	// The sequence number is drawn BEFORE the exchange: a probe that
	// started earlier carries older data no matter when it finishes,
	// so finishProbe can drop its snapshot if a later probe already
	// published.
	seq := r.probeSeq.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), ro.cfg.ProbeTimeout)
	err := r.b.Health(ctx)
	var snap serve.Snapshot
	var serr error
	if err == nil {
		snap, serr = r.b.Stats(ctx)
	}
	cancel()
	ro.finishProbe(r, seq, err, snap, serr)
}

// finishProbe folds one probe exchange's outcome into the replica's
// admission state and snapshot cache. The snapshot store happens under
// r.mu and only when no later-started probe has published yet —
// without the ordering, a slow probe finishing after a re-admission
// cycle would overwrite the fresher snapshot and walk floor with stale
// ones.
func (ro *Router) finishProbe(r *replica, seq int64, err error, snap serve.Snapshot, serr error) {
	r.mu.Lock()
	if err != nil {
		r.probeOKs = 0
		r.probeFails++
		r.probeFailTotal.Add(1)
		r.lastProbeErr = err
		if r.probeFails >= ro.cfg.DownAfter {
			r.up = false
		}
		if r.backoff == 0 {
			// Seed from the probe cadence; when background probing is
			// disabled (negative interval, tests driving probeOnce by
			// hand) fall back to the default cadence so the backoff
			// arithmetic still behaves.
			r.backoff = ro.cfg.ProbeInterval
			if r.backoff <= 0 {
				r.backoff = 500 * time.Millisecond
			}
		}
		r.backoff *= 2
		if r.backoff > ro.cfg.ProbeBackoffMax {
			r.backoff = ro.cfg.ProbeBackoffMax
		}
	} else {
		r.probeFails = 0
		r.probeOKs++
		r.lastProbeErr = nil
		r.backoff = 0
		if !r.up && r.probeOKs >= ro.cfg.ReadmitAfter {
			r.up = true
			r.brState = brClosed
			r.brFails = 0
			r.brTrialBusy = false
		}
	}
	if err == nil && serr == nil && seq > r.snapSeq {
		r.snapSeq = seq
		r.storeSnap(snap)
	}
	r.mu.Unlock()
}

// Available counts replicas currently admitted (up, breaker not
// open) — what a load generator waits on before starting, and what a
// router-mode /healthz reports.
func (ro *Router) Available() int {
	now := time.Now()
	n := 0
	for _, r := range ro.replicas {
		r.mu.Lock()
		if r.up && r.brCanAllowLocked(now) {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// pick selects an admitted, untried replica and claims its breaker
// slot. Keyless requests (and routers without Affinity) take the
// least predicted backlog, breaking ties with a rotating offset so
// equal replicas share first-attempt load; keyed requests under
// Affinity take rendezvous-hash order with the bounded-load spill
// (see orderByAffinity). Retries additionally require the remaining
// deadline to afford the candidate's calibrated MinSubnet walk.
// Returns nil when no replica qualifies.
func (ro *Router) pick(tried []*replica, isRetry bool, absDeadline time.Time, key uint64, hasKey bool) *replica {
	now := time.Now()
	remaining := absDeadline.Sub(now)
	var cands []candidate
	n := len(ro.replicas)
	// The rotation counter wraps: reduce it in uint64 space before
	// converting, because int(raw) goes negative past math.MaxInt (on
	// every wrap for 32-bit int) and a negative offset would turn
	// (offset+i)%n into a negative index.
	offset := int(uint64(ro.rr.Add(1)) % uint64(n))
	useAff := ro.cfg.Affinity && hasKey
	for i := 0; i < n; i++ {
		r := ro.replicas[(offset+i)%n]
		if slices.Contains(tried, r) {
			continue
		}
		r.mu.Lock()
		ok := r.up && r.brCanAllowLocked(now)
		r.mu.Unlock()
		if !ok {
			continue
		}
		if isRetry && !r.affordable(remaining) {
			continue
		}
		c := candidate{r: r, score: r.backlogScore()}
		if useAff {
			c.weight = hrwWeight(key, r.id)
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return nil
	}
	var hrwFirst *replica
	demoted := false
	if useAff {
		hrwFirst, demoted = orderByAffinity(cands, ro.cfg.AffinitySpillFactor)
	} else {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
	}
	for _, c := range cands {
		if c.r.brAcquire(now) {
			if useAff && !isRetry {
				// Affinity accounting covers first attempts only —
				// retries merely PREFER warm replicas and would
				// dilute the hit/spill signal.
				switch {
				case c.r == hrwFirst:
					c.r.affinityHits.Add(1)
					ro.affinityRouted.Add(1)
				case demoted:
					hrwFirst.affinitySpills.Add(1)
					ro.affinitySpilled.Add(1)
				}
			}
			return c.r
		}
	}
	return nil
}

// dispatch runs one attempt against a replica, updating its breaker
// and counters. The attempt is handed what is left of the request's
// deadline (floored at 1 ns: zero asks for the replica's default), not
// the original — a retry told it had the whole budget again would be
// answered, and reported in time, against a clock the client never had.
// The context deadline is the request deadline plus attemptGrace.
func (ro *Router) dispatch(r *replica, req serve.Request, absDeadline time.Time, isRetry bool) (serve.Result, error) {
	req.Deadline = max(time.Until(absDeadline), 1)
	r.dispatches.Add(1)
	if isRetry {
		r.retried.Add(1)
		ro.retries.Add(1)
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	ctx, cancel := context.WithDeadline(context.Background(), absDeadline.Add(attemptGrace))
	defer cancel()
	res, err := r.b.Submit(ctx, req)
	now := time.Now()
	switch {
	case err == nil:
		r.success.Add(1)
		r.brReport(true, now, ro.cfg.BreakerThreshold, ro.cfg.BreakerCooldown)
	case errors.Is(err, serve.ErrOverloaded):
		// A typed refusal: the replica is alive and defending itself.
		// Not breaker evidence — an overloaded-but-healthy replica
		// must not be ejected, that would dogpile its peers.
		r.rejected.Add(1)
		r.brReport(true, now, ro.cfg.BreakerThreshold, ro.cfg.BreakerCooldown)
	case errors.Is(err, serve.ErrBadInput):
		// The request's own fault; says nothing about the replica —
		// but it still consumed a dispatch, so it gets its own counter
		// (per-replica outcomes must sum to dispatches).
		r.badInput.Add(1)
		r.brReport(true, now, ro.cfg.BreakerThreshold, ro.cfg.BreakerCooldown)
	default:
		// Transport failure, timeout, or a draining replica
		// (ErrClosed): all evidence this replica should stop
		// receiving work.
		r.transport.Add(1)
		r.brReport(false, now, ro.cfg.BreakerThreshold, ro.cfg.BreakerCooldown)
	}
	return res, err
}

// Submit routes one request through the cluster and blocks until an
// answer or a typed error: it picks a replica (rendezvous-hashed on
// the input's cache key under Affinity, least-backlogged otherwise)
// and retries failed attempts on different replicas, one attempt per
// replica, while the remaining deadline still affords their calibrated
// minimum walk. Every attempt runs on the caller's goroutine, so
// nothing reads the request after Submit returns. Every call resolves
// to exactly one outcome; errors pass through typed
// (serve.ErrOverloaded, serve.ErrBadInput, ErrTransport-wrapped
// failures) or ErrNoReplicas when nothing could take the request.
func (ro *Router) Submit(req serve.Request) (serve.Result, error) {
	ro.submitted.Add(1)
	if req.Input == nil && req.Keyed {
		ro.inputsKnown.Add(1)
	}
	d := req.Deadline
	if d <= 0 {
		d = ro.cfg.DefaultDeadline
		req.Deadline = d
	}
	absDeadline := time.Now().Add(d)

	// The affinity key is computed once per request, not per attempt:
	// retries keep preferring the same HRW order, so a resumed rung is
	// still likely warm wherever the request ends up. A request that
	// arrives keyed is not hashed again, here or in a Local backend's
	// server.
	if ro.cfg.Affinity && !req.Keyed && len(req.Input) > 0 {
		req.Key, req.Keyed = cache.KeyOf(req.Input), true
	}
	key, hasKey := uint64(req.Key), ro.cfg.Affinity && req.Keyed

	var (
		tried   []*replica
		lastErr error
	)
	for len(tried) < len(ro.replicas) {
		isRetry := len(tried) > 0
		r := ro.pick(tried, isRetry, absDeadline, key, hasKey)
		if r == nil {
			break
		}
		tried = append(tried, r)
		res, err := ro.dispatch(r, req, absDeadline, isRetry)
		switch {
		case err == nil:
			ro.served.Add(1)
			return res, nil
		case errors.Is(err, serve.ErrBadInput):
			ro.failed.Add(1)
			return serve.Result{}, err
		}
		lastErr = err
	}
	ro.failed.Add(1)
	if lastErr != nil {
		return serve.Result{}, lastErr
	}
	return serve.Result{}, fmt.Errorf("%w: %d replicas configured, deadline %v",
		ErrNoReplicas, len(ro.replicas), d)
}

// ReplicaStats is one replica's slice of RouterStats.
type ReplicaStats struct {
	// Target names the replica.
	Target string `json:"target"`
	// Up reports the health prober's current admission verdict.
	Up bool `json:"up"`
	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	// Dispatches counts attempts dispatched to this replica (first
	// tries and retries). Success + Rejected +
	// TransportErrors + BadInputs always sums to it.
	Dispatches int64 `json:"dispatches"`
	// Success counts answered dispatches to this replica.
	Success int64 `json:"success"`
	// Rejected counts typed overload refusals from this replica.
	Rejected int64 `json:"rejected"`
	// TransportErrors counts failed exchanges (timeouts, refused or
	// torn connections, draining replies).
	TransportErrors int64 `json:"transport_errors"`
	// BadInputs counts typed ErrBadInput refusals — the request's own
	// fault, not the replica's, but still a consumed dispatch.
	BadInputs int64 `json:"bad_input"`
	// Retried counts dispatches to this replica that were retries of
	// an attempt failed elsewhere.
	Retried int64 `json:"retried"`
	// AffinityHits counts first attempts routed to this replica
	// because it was the request key's rendezvous-hash choice (0 when
	// affinity routing is off).
	AffinityHits int64 `json:"affinity_hits"`
	// AffinitySpills counts first attempts whose rendezvous choice was
	// this replica but that the bounded-load spill diverted elsewhere.
	AffinitySpills int64 `json:"affinity_spills"`
	// ProbeFails counts health-probe failures since startup.
	ProbeFails int64 `json:"probe_fails"`
	// InFlight gauges this router's dispatches currently running on
	// the replica.
	InFlight int64 `json:"in_flight"`
	// QueueLen is the replica's admission-queue occupancy at its last
	// successful probe.
	QueueLen int `json:"queue_len"`
	// ServiceEwmaMs is the replica's smoothed per-request service
	// time at its last successful probe.
	ServiceEwmaMs float64 `json:"service_ewma_ms"`
	// WalkFloorMs is the replica's calibrated MinSubnet walk cost —
	// the retry-affordability floor — in milliseconds.
	WalkFloorMs float64 `json:"walk_floor_ms"`
	// SLOViolations is the replica's cumulative SLO-violation tick
	// count at its last successful probe (0 when the replica runs no
	// overload governor).
	SLOViolations int64 `json:"slo_violations"`
	// BrownoutTransitions is the replica's cumulative brownout ladder
	// move count at its last successful probe.
	BrownoutTransitions int64 `json:"brownout_transitions"`
	// BrownoutLevel is the replica's deepest per-class brownout depth
	// at its last successful probe — the at-a-glance "this replica is
	// browning out" signal for router operators (0 = neutral).
	BrownoutLevel int `json:"brownout_level"`
	// CacheHits is the replica's cumulative semantic-cache full hits
	// at its last successful probe (0 when the cache is off).
	CacheHits int64 `json:"cache_hits"`
	// InlineHits is how many of CacheHits the replica had answered
	// before its queue, at its last successful probe.
	InlineHits int64 `json:"inline_hits"`
	// CacheResumes is the replica's cumulative cache-seeded resumed
	// walks at its last successful probe.
	CacheResumes int64 `json:"cache_resumes"`
	// EarlyExits is the replica's cumulative confidence early exits
	// at its last successful probe.
	EarlyExits int64 `json:"early_exits"`
	// LastProbeError is the most recent probe failure ("" when the
	// last probe succeeded).
	LastProbeError string `json:"last_probe_error,omitempty"`
}

// RouterStats is a point-in-time snapshot of the router's outcome
// counters and per-replica states (the /stats payload in router
// mode).
type RouterStats struct {
	// Submitted counts Submit calls.
	Submitted int64 `json:"submitted"`
	// Served counts Submits answered successfully.
	Served int64 `json:"served"`
	// Failed counts Submits that returned an error.
	Failed int64 `json:"failed"`
	// Retries counts re-dispatches after a failed attempt.
	Retries int64 `json:"retries"`
	// InputsKnown counts Submits that came keyed and without their
	// floats: recognised by the caller, forwarded unparsed.
	InputsKnown int64 `json:"inputs_known"`
	// AffinityRouted counts first attempts that landed on their key's
	// rendezvous-hash choice (0 unless Affinity is on).
	AffinityRouted int64 `json:"affinity_routed"`
	// AffinitySpilled counts first attempts the bounded-load spill
	// diverted away from their rendezvous choice.
	AffinitySpilled int64 `json:"affinity_spilled"`
	// Available counts replicas currently admitted.
	Available int `json:"available"`
	// Replicas breaks the counters down per replica.
	Replicas []ReplicaStats `json:"replicas"`
}

// Stats snapshots the router's counters and per-replica states.
func (ro *Router) Stats() RouterStats {
	st := RouterStats{
		Submitted:       ro.submitted.Load(),
		Served:          ro.served.Load(),
		Failed:          ro.failed.Load(),
		Retries:         ro.retries.Load(),
		InputsKnown:     ro.inputsKnown.Load(),
		AffinityRouted:  ro.affinityRouted.Load(),
		AffinitySpilled: ro.affinitySpilled.Load(),
	}
	now := time.Now()
	for _, r := range ro.replicas {
		r.mu.Lock()
		rs := ReplicaStats{
			Target: r.b.Target(),
			Up:     r.up,
			Breaker: map[int]string{
				brClosed: "closed", brOpen: "open", brHalfOpen: "half-open",
			}[r.brState],
			ProbeFails: r.probeFailTotal.Load(),
		}
		if r.up && r.brCanAllowLocked(now) {
			st.Available++
		}
		if r.lastProbeErr != nil {
			rs.LastProbeError = r.lastProbeErr.Error()
		}
		r.mu.Unlock()
		rs.Dispatches = r.dispatches.Load()
		rs.Success = r.success.Load()
		rs.Rejected = r.rejected.Load()
		rs.TransportErrors = r.transport.Load()
		rs.BadInputs = r.badInput.Load()
		rs.Retried = r.retried.Load()
		rs.AffinityHits = r.affinityHits.Load()
		rs.AffinitySpills = r.affinitySpills.Load()
		rs.InFlight = r.inflight.Load()
		rs.WalkFloorMs = float64(r.floorNs.Load()) / float64(time.Millisecond)
		if snap := r.snap.Load(); snap != nil {
			rs.QueueLen = snap.QueueLen
			rs.ServiceEwmaMs = snap.ServiceEwmaMs
			rs.SLOViolations = snap.SLOViolations
			rs.BrownoutTransitions = snap.BrownoutTransitions
			rs.CacheHits = snap.CacheHits
			rs.InlineHits = snap.InlineHits
			rs.CacheResumes = snap.CacheResumes
			rs.EarlyExits = snap.EarlyExits
			if snap.Policy != nil {
				rs.BrownoutLevel = snap.Policy.MaxLevel
			}
		}
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}
