package cluster

import (
	"time"

	"steppingnet/internal/serve"
)

// InferRequest is the POST /infer wire payload — the JSON contract
// between stepserve replicas, the router's remote client, and any
// external caller. It lives here (not in cmd/stepserve) with its one
// reader and one writer (codec.go), so the HTTP handler and the Remote
// backend speak the exact same shape and cannot drift apart.
type InferRequest struct {
	// Input is the flattened image; a replica substitutes a seeded
	// random input when it is absent (smoke tests, load generators).
	Input []float64 `json:"input,omitempty"`
	// DeadlineMs is the request deadline in milliseconds measured
	// from arrival; 0 selects the replica's configured default.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Priority is the request's class (0 = lowest; clamped
	// server-side).
	Priority int `json:"priority,omitempty"`
}

// InferResponse is the POST /infer wire answer, mirroring
// serve.Result field for field.
type InferResponse struct {
	// Subnet is the ladder rung that produced Logits.
	Subnet int `json:"subnet"`
	// Pred is the argmax class of Logits.
	Pred int `json:"pred"`
	// Logits is the served subnet's output row.
	Logits []float64 `json:"logits"`
	// MACs is the incremental walk cost actually spent.
	MACs int64 `json:"macs"`
	// Priority is the clamped class the request was scheduled under.
	Priority int `json:"priority"`
	// DeadlineMet reports whether the answer beat the deadline.
	DeadlineMet bool `json:"deadline_met"`
	// QueueWaitMs is the admission-queue wait in milliseconds.
	QueueWaitMs float64 `json:"queue_wait_ms"`
	// LatencyMs is submission→answer wall clock in milliseconds.
	LatencyMs float64 `json:"latency_ms"`
	// CacheHit reports the answer came straight from the replica's
	// semantic result cache (zero MACs walked).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Resumed reports the walk was seeded from a cached rung; MACs
	// meters only the climbed steps.
	Resumed bool `json:"resumed,omitempty"`
	// EarlyExit reports the confidence early exit answered below the
	// affordable ladder cap.
	EarlyExit bool `json:"early_exit,omitempty"`
}

// WireResponse converts a serve.Result into its wire form.
func WireResponse(res serve.Result) InferResponse {
	return InferResponse{
		Subnet: res.Subnet, Pred: res.Pred, Logits: res.Logits, MACs: res.MACs,
		Priority:    res.Priority,
		DeadlineMet: res.DeadlineMet,
		QueueWaitMs: float64(res.QueueWait) / float64(time.Millisecond),
		LatencyMs:   float64(res.Latency) / float64(time.Millisecond),
		CacheHit:    res.CacheHit,
		Resumed:     res.Resumed,
		EarlyExit:   res.EarlyExit,
	}
}

// Result converts a wire answer back into a serve.Result — the shape
// the router hands callers, so local and remote answers are
// indistinguishable above the Backend seam.
func (r InferResponse) Result() serve.Result {
	return serve.Result{
		Subnet: r.Subnet, Pred: r.Pred, Logits: r.Logits, MACs: r.MACs,
		Priority:    r.Priority,
		DeadlineMet: r.DeadlineMet,
		QueueWait:   time.Duration(r.QueueWaitMs * float64(time.Millisecond)),
		Latency:     time.Duration(r.LatencyMs * float64(time.Millisecond)),
		CacheHit:    r.CacheHit,
		Resumed:     r.Resumed,
		EarlyExit:   r.EarlyExit,
	}
}
