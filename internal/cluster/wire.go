package cluster

import (
	"strconv"
	"time"

	"steppingnet/internal/infer"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
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

// CacheEntryWire is the GET/POST /cache/entry wire payload: one
// semantic-cache entry plus its resumable ladder state, serialized for
// affinity-aware cross-replica warming. The key travels as a base-16
// string, never a JSON number — cache keys are full-range 64-bit
// hashes and JSON numbers are float64, which silently corrupts values
// above 2^53.
type CacheEntryWire struct {
	// Key is the cache key in lowercase base-16 (FormatKey/ParseKey).
	Key string `json:"key"`
	// Subnet is the rung whose logits the entry stores.
	Subnet int `json:"subnet"`
	// Logits is the stored output row for Subnet.
	Logits []float64 `json:"logits"`
	// State is the resumable ladder state, when the entry has one.
	// Warming without state still converts exact repeats into
	// zero-MAC hits at the target replica.
	State *infer.WireState `json:"state,omitempty"`
}

// FormatKey renders a cache key in the wire form CacheEntryWire.Key
// carries (lowercase base-16, no prefix).
func FormatKey(k cache.Key) string {
	return strconv.FormatUint(uint64(k), 16)
}

// ParseKey inverts FormatKey.
func ParseKey(s string) (cache.Key, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	return cache.Key(v), err
}

// WireCacheEntry converts a live cache entry into its wire form. The
// logits and state are aliased, not copied: entries are immutable once
// published, and the wire form exists only to be marshaled.
func WireCacheEntry(k cache.Key, ent *cache.Entry) (CacheEntryWire, error) {
	w := CacheEntryWire{Key: FormatKey(k), Subnet: ent.Subnet, Logits: ent.Logits}
	if ent.State != nil {
		ws, err := ent.State.Wire()
		if err != nil {
			return CacheEntryWire{}, err
		}
		w.State = ws
	}
	return w, nil
}

// Entry converts a wire-form cache entry back into the key and entry
// to install, validating the state's structural invariants and making
// fresh private copies along the way.
func (w CacheEntryWire) Entry() (cache.Key, *cache.Entry, error) {
	k, err := ParseKey(w.Key)
	if err != nil {
		return 0, nil, err
	}
	ent := &cache.Entry{Subnet: w.Subnet, Logits: append([]float64(nil), w.Logits...)}
	if w.State != nil {
		st, err := w.State.State()
		if err != nil {
			return 0, nil, err
		}
		ent.State = st
	}
	return k, ent, nil
}

// Bytes estimates the transfer's payload footprint (float64 data plus
// a small fixed overhead per tensor) — the unit the router's
// per-replica warming byte budget meters.
func (w CacheEntryWire) Bytes() int64 {
	n := int64(len(w.Logits))
	if w.State != nil {
		for _, l := range w.State.Layers {
			n += int64(len(l.Data))
		}
	}
	return n*8 + 64
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
