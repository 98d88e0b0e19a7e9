package serve

import (
	"sync/atomic"
	"time"

	"steppingnet/internal/governor"
)

// refreshMinObs is how many live observations a step needs before a
// refresh will trust its EWMA over the previous calibration — a lone
// cold-cache outlier must not repoint the whole deadline model.
const refreshMinObs = 3

// refresher accumulates live per-step latency observations from the
// worker engines (infer.Engine.StepTimer, normalized to per-row cost)
// into lock-free per-step EWMAs. It is the measurement half of the
// calibration refresh loop; Server.refreshCalibration is the
// publication half.
type refresher struct {
	ewmaNs []atomic.Int64 // per-step EWMA of observed batch-1 step cost, ns
	count  []atomic.Int64 // observations folded in so far
}

// newRefresher sizes a refresher for an n-step ladder.
func newRefresher(n int) *refresher {
	return &refresher{ewmaNs: make([]atomic.Int64, n), count: make([]atomic.Int64, n)}
}

// observe folds one per-row step timing into step s's EWMA (α = 0.2;
// the first observation seeds it). Safe for concurrent use from every
// worker; allocation-free, so it may run inside the zero-alloc walk.
func (r *refresher) observe(s int, perRow time.Duration) {
	if s < 1 || s > len(r.ewmaNs) {
		return
	}
	obs := int64(perRow)
	if obs <= 0 {
		obs = 1 // sub-resolution steps must stay positive for Validate
	}
	e := &r.ewmaNs[s-1]
	for {
		old := e.Load()
		next := obs
		if old > 0 {
			next = old + (obs-old)/5
		}
		if e.CompareAndSwap(old, next) {
			break
		}
	}
	r.count[s-1].Add(1)
}

// observed returns step s's current EWMA and observation count.
func (r *refresher) observed(s int) (time.Duration, int64) {
	return time.Duration(r.ewmaNs[s-1].Load()), r.count[s-1].Load()
}

// refreshCalibration rebuilds the latency model from the live
// step-timing EWMAs and atomically publishes it when anything moved:
// steps with enough observations adopt their measured cost, the rest
// keep the current model's value (a step the shed cap has kept the
// ladder away from has no fresher truth than its last calibration).
// Returns whether a new model was published. Called by the background
// refresh loop; exercised directly (with injected observations) by
// the drift tests. The cache is left alone: a cached walk is a pure
// function of the input and the weights, and the latency model only
// decides which rung a deadline affords.
func (s *Server) refreshCalibration() bool {
	cur := s.lat.Load()
	times := make([]time.Duration, len(cur.StepTime))
	changed := false
	for i := range times {
		times[i] = cur.StepTime[i]
		if obs, n := s.ref.observed(i + 1); n >= refreshMinObs && obs != times[i] {
			times[i] = obs
			changed = true
		}
	}
	if !changed {
		return false
	}
	next := governor.LatencyModel{StepMACs: cur.StepMACs, StepTime: times}
	if next.Validate() != nil {
		return false
	}
	s.lat.Store(next)
	s.stats.recordRefresh()
	return true
}
