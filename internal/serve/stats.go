package serve

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latRingSize bounds the global latency reservoir the percentile
// estimates are computed from: large enough that p99 over recent
// traffic is meaningful, small enough that a Snapshot sort stays off
// any hot path's critical section.
const latRingSize = 4096

// classRingSize bounds the per-priority-class latency reservoirs
// (smaller than the global ring — per-class percentiles cover a
// narrower slice of traffic).
const classRingSize = 1024

// latRing is a fixed-size reservoir of recent latency samples.
type latRing struct {
	buf   []time.Duration
	idx   int
	count int
}

func newLatRing(size int) latRing {
	return latRing{buf: make([]time.Duration, size)}
}

// push records one sample, overwriting the oldest once full.
func (r *latRing) push(d time.Duration) {
	r.buf[r.idx] = d
	r.idx = (r.idx + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// samples copies out the valid window (unordered; callers sort).
func (r *latRing) samples() []time.Duration {
	return append([]time.Duration(nil), r.buf[:r.count]...)
}

// classCounters accumulates the per-priority-class serving counters.
type classCounters struct {
	submitted     int64
	rejected      int64
	served        int64
	deadlineMet   int64
	sloViolations int64
	brownouts     int64
	cacheHits     int64
	cacheResumes  int64
	earlyExits    int64
	bySubnet      []int64
	lats          latRing
}

// Stats accumulates serving counters. One instance per Server; all
// methods are safe for concurrent use.
type Stats struct {
	mu            sync.Mutex
	submitted     int64
	rejected      int64
	served        int64
	deadlineMet   int64
	refreshes     int64
	sloViolations int64
	brownouts     int64
	cacheHits     int64
	cacheResumes  int64
	earlyExits    int64
	totalMACs     int64
	bySubnet      []int64 // answers per subnet, index s-1
	byClass       []classCounters
	lats          latRing // recent end-to-end latencies, all classes
}

func newStats(n, priorities int) *Stats {
	st := &Stats{
		bySubnet: make([]int64, n),
		byClass:  make([]classCounters, priorities),
		lats:     newLatRing(latRingSize),
	}
	for c := range st.byClass {
		st.byClass[c].bySubnet = make([]int64, n)
		st.byClass[c].lats = newLatRing(classRingSize)
	}
	return st
}

// class clamps a priority into the tracked range (Submit clamps too;
// this keeps the stats layer safe standalone).
func (st *Stats) class(c int) *classCounters {
	if c < 0 {
		c = 0
	}
	if c >= len(st.byClass) {
		c = len(st.byClass) - 1
	}
	return &st.byClass[c]
}

func (st *Stats) recordSubmitted(class int) {
	st.mu.Lock()
	st.submitted++
	st.class(class).submitted++
	st.mu.Unlock()
}

func (st *Stats) recordRejected(class int) {
	st.mu.Lock()
	st.rejected++
	st.class(class).rejected++
	st.mu.Unlock()
}

func (st *Stats) recordRefresh() {
	st.mu.Lock()
	st.refreshes++
	st.mu.Unlock()
}

// recordSLOViolation counts one control tick that observed class c
// violating its SLO (monotonic; one per violating class per tick).
func (st *Stats) recordSLOViolation(class int) {
	st.mu.Lock()
	st.sloViolations++
	st.class(class).sloViolations++
	st.mu.Unlock()
}

// recordBrownout counts one brownout ladder move (escalation or
// recovery) applied to class c (monotonic).
func (st *Stats) recordBrownout(class int) {
	st.mu.Lock()
	st.brownouts++
	st.class(class).brownouts++
	st.mu.Unlock()
}

func (st *Stats) recordServed(res Result) {
	st.mu.Lock()
	st.served++
	cc := st.class(res.Priority)
	cc.served++
	if res.DeadlineMet {
		st.deadlineMet++
		cc.deadlineMet++
	}
	if res.CacheHit {
		st.cacheHits++
		cc.cacheHits++
	}
	if res.Resumed {
		st.cacheResumes++
		cc.cacheResumes++
	}
	if res.EarlyExit {
		st.earlyExits++
		cc.earlyExits++
	}
	st.totalMACs += res.MACs
	if res.Subnet >= 1 && res.Subnet <= len(st.bySubnet) {
		st.bySubnet[res.Subnet-1]++
		cc.bySubnet[res.Subnet-1]++
	}
	st.lats.push(res.Latency)
	cc.lats.push(res.Latency)
	st.mu.Unlock()
}

// ClassSnapshot is the per-priority-class slice of a Snapshot: the
// counters that show whether overload is being absorbed by the right
// traffic (low classes shed and narrow first, high classes keep their
// deadline hit rate and subnet distribution).
type ClassSnapshot struct {
	// Priority is the class index (0 = lowest).
	Priority int `json:"priority"`
	// Submitted counts this class's admission attempts.
	Submitted int64 `json:"submitted"`
	// Rejected counts this class's error answers (ErrOverloaded
	// fast-fails, plus worker-surfaced engine failures).
	Rejected int64 `json:"rejected"`
	// Served counts this class's answered requests.
	Served int64 `json:"served"`
	// DeadlineMet counts this class's answers delivered in time.
	DeadlineMet int64 `json:"deadline_met"`
	// DeadlineHitRate is DeadlineMet/Served (0 when nothing served).
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
	// BySubnet histograms this class's answers over the ladder,
	// index s-1.
	BySubnet []int64 `json:"by_subnet"`
	// P50Ms is this class's median end-to-end latency over its
	// recent window, in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	// P99Ms is the 99th-percentile latency of the same window.
	P99Ms float64 `json:"p99_ms"`
	// SLOViolations counts control ticks that observed this class
	// violating its SLO (monotonic; 0 without a governor).
	SLOViolations int64 `json:"slo_violations"`
	// BrownoutTransitions counts brownout ladder moves — escalations
	// and recoveries — applied to this class (monotonic).
	BrownoutTransitions int64 `json:"brownout_transitions"`
	// CacheHits counts this class's answers served entirely from the
	// semantic result cache (zero MACs; 0 with the cache off).
	CacheHits int64 `json:"cache_hits"`
	// CacheResumes counts this class's walks seeded from a cached rung
	// instead of rung 0.
	CacheResumes int64 `json:"cache_resumes"`
	// EarlyExits counts this class's answers returned by the
	// confidence early exit below their affordable ladder cap.
	EarlyExits int64 `json:"early_exits"`
}

// Snapshot is a point-in-time copy of the serving counters, shaped
// for JSON (the /stats endpoint of cmd/stepserve).
type Snapshot struct {
	// Submitted counts admission attempts (accepted + rejected).
	Submitted int64 `json:"submitted"`
	// Rejected counts requests answered with an error: ErrOverloaded
	// fast-fails (class queue share exhausted or deadline unmeetable
	// at the measured backlog) and, in the pathological case, engine
	// failures surfaced by a worker.
	Rejected int64 `json:"rejected"`
	// Served counts answered requests.
	Served int64 `json:"served"`
	// DeadlineMet counts answers delivered before their deadline.
	DeadlineMet int64 `json:"deadline_met"`
	// DeadlineHitRate is DeadlineMet/Served (0 when nothing served).
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
	// BySubnet histograms answers over the ladder, index s-1 — the
	// distribution that shifts toward narrow subnets under overload.
	BySubnet []int64 `json:"by_subnet"`
	// Classes breaks the counters down per priority class, index =
	// priority (one entry, mirroring the globals, when priorities are
	// not configured).
	Classes []ClassSnapshot `json:"classes"`
	// TotalMACs sums the per-request MACs actually executed.
	TotalMACs int64 `json:"total_macs"`
	// Refreshes counts calibration-refresh swaps of the latency
	// model since startup (0 with the refresh loop disabled).
	Refreshes int64 `json:"refreshes"`
	// P50Ms is the median end-to-end latency (queue wait + walk)
	// over the most recent window of served requests, in
	// milliseconds.
	P50Ms float64 `json:"p50_ms"`
	// P90Ms is the 90th-percentile latency of the same window.
	P90Ms float64 `json:"p90_ms"`
	// P99Ms is the 99th-percentile latency of the same window.
	P99Ms float64 `json:"p99_ms"`
	// QueueLen gauges admission-queue occupancy at snapshot time.
	QueueLen int `json:"queue_len"`
	// QueueCap is the admission queue's configured bound.
	QueueCap int `json:"queue_cap"`
	// Workers is the engine-pool size serving requests.
	Workers int `json:"workers"`
	// MinSubnet is the narrowest answer this server is configured to
	// return (Config.MinSubnet) — together with StepTimeMs it lets a
	// remote router compute the cheapest walk this replica can
	// possibly serve, the floor its deadline-aware retry policy
	// checks before re-dispatching a request here.
	MinSubnet int `json:"min_subnet"`
	// ServiceEwmaMs is the smoothed per-request service time the
	// admission controller predicts queue waits with, in
	// milliseconds (0 until the first batch completes).
	ServiceEwmaMs float64 `json:"service_ewma_ms"`
	// MACRate is the calibrated throughput (MACs/second) the
	// deadline scheduler plans with.
	MACRate float64 `json:"mac_rate"`
	// StepTimeMs lists the per-step latencies of the latency model
	// currently planned with (startup calibration or the latest
	// refresh), index s-1.
	StepTimeMs []float64 `json:"step_time_ms"`
	// SLOViolations totals the per-class SLO-violation ticks (0
	// without a governor).
	SLOViolations int64 `json:"slo_violations"`
	// BrownoutTransitions totals the per-class brownout ladder moves.
	BrownoutTransitions int64 `json:"brownout_transitions"`
	// Policy is the overload governor's currently published actuator
	// set; nil on servers without SLOs configured.
	Policy *PolicySnapshot `json:"policy,omitempty"`
	// CacheEnabled reports whether the semantic result cache is armed
	// (Config.CacheEntries > 0).
	CacheEnabled bool `json:"cache_enabled"`
	// CacheHits totals the answers served entirely from the semantic
	// result cache.
	CacheHits int64 `json:"cache_hits"`
	// InlineHits counts the CacheHits answered before the queue: a
	// live top-rung entry found by Submit, on the caller's goroutine.
	InlineHits int64 `json:"inline_hits"`
	// InputsKnown counts the InlineHits whose request came keyed, with
	// its input text and without its floats: recognised, never parsed.
	InputsKnown int64 `json:"inputs_known"`
	// CacheResumes totals the walks seeded from a cached rung.
	CacheResumes int64 `json:"cache_resumes"`
	// EarlyExits totals the confidence early-exit answers.
	EarlyExits int64 `json:"early_exits"`
	// CacheEntries gauges the cache's live entry count at snapshot
	// time (0 with the cache off).
	CacheEntries int `json:"cache_entries"`
	// CacheBytes gauges the cache's accounted memory footprint.
	CacheBytes int64 `json:"cache_bytes"`
	// CacheEvictions counts the entries the cache's LRU bounds
	// (CacheEntries, CacheBytes) pushed out, the only way an entry
	// leaves.
	CacheEvictions int64 `json:"cache_evictions"`
}

// PolicySnapshot is the JSON shape of the overload governor's current
// policy in a Snapshot — what a `stepserve -route` operator reads to
// see which replica is browning out, and how deep.
type PolicySnapshot struct {
	// ShedCap[c] is class c's policy ladder cap (0 = unconstrained).
	ShedCap []int `json:"shed_cap"`
	// AdmitScale[c] is class c's admission-strictness multiplier
	// (≤ 1 = neutral).
	AdmitScale []float64 `json:"admit_scale"`
	// QueueShare[c] is class c's overridden queue share (0 = the
	// configured nested share).
	QueueShare []int `json:"queue_share"`
	// Lookahead is the batch former's deadline-headroom compatibility
	// ratio (0 = grouping off).
	Lookahead float64 `json:"lookahead"`
	// Level[c] is class c's brownout ladder depth (0 = untouched).
	Level []int `json:"level"`
	// MaxLevel is the deepest current per-class level — the one-glance
	// "how browned out is this replica" gauge.
	MaxLevel int `json:"max_level"`
}

// snapshot copies the counters and computes the latency percentiles.
func (st *Stats) snapshot() Snapshot {
	st.mu.Lock()
	snap := Snapshot{
		Submitted:           st.submitted,
		Rejected:            st.rejected,
		Served:              st.served,
		DeadlineMet:         st.deadlineMet,
		Refreshes:           st.refreshes,
		SLOViolations:       st.sloViolations,
		BrownoutTransitions: st.brownouts,
		CacheHits:           st.cacheHits,
		CacheResumes:        st.cacheResumes,
		EarlyExits:          st.earlyExits,
		TotalMACs:           st.totalMACs,
		BySubnet:            append([]int64(nil), st.bySubnet...),
		Classes:             make([]ClassSnapshot, len(st.byClass)),
	}
	lats := st.lats.samples()
	classLats := make([][]time.Duration, len(st.byClass))
	for c := range st.byClass {
		cc := &st.byClass[c]
		snap.Classes[c] = ClassSnapshot{
			Priority:            c,
			Submitted:           cc.submitted,
			Rejected:            cc.rejected,
			Served:              cc.served,
			DeadlineMet:         cc.deadlineMet,
			SLOViolations:       cc.sloViolations,
			BrownoutTransitions: cc.brownouts,
			CacheHits:           cc.cacheHits,
			CacheResumes:        cc.cacheResumes,
			EarlyExits:          cc.earlyExits,
			BySubnet:            append([]int64(nil), cc.bySubnet...),
		}
		classLats[c] = cc.lats.samples()
	}
	st.mu.Unlock()

	if snap.Served > 0 {
		snap.DeadlineHitRate = float64(snap.DeadlineMet) / float64(snap.Served)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	snap.P50Ms = PercentileMs(lats, 0.50)
	snap.P90Ms = PercentileMs(lats, 0.90)
	snap.P99Ms = PercentileMs(lats, 0.99)
	for c := range snap.Classes {
		cs := &snap.Classes[c]
		if cs.Served > 0 {
			cs.DeadlineHitRate = float64(cs.DeadlineMet) / float64(cs.Served)
		}
		cl := classLats[c]
		sort.Slice(cl, func(i, j int) bool { return cl[i] < cl[j] })
		cs.P50Ms = PercentileMs(cl, 0.50)
		cs.P99Ms = PercentileMs(cl, 0.99)
	}
	return snap
}

// PercentileMs returns the p-quantile of an ascending latency slice
// in milliseconds, using the nearest-rank method (the ⌈p·n⌉-th
// smallest sample), or 0 for an empty slice. Exported for load
// generators and monitoring code that aggregate their own latency
// samples alongside the server's Snapshot.
func PercentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[pctIdx(len(sorted), p)]) / float64(time.Millisecond)
}

// pctIdx is the nearest-rank index of the p-quantile in an n-sample
// ascending slice, clamped to a valid index (n ≥ 1).
func pctIdx(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
