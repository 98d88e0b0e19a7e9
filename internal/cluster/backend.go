// Package cluster takes the anytime serving layer multi-process: it
// is the robustness tier between callers and N stepserve replicas.
// The dispatch seam is the transport-agnostic Backend interface —
// implemented by Local (an in-process serve.Server) and Remote (an
// HTTP replica, which it speaks to itself) — so one code path serves
// both, and everything above it composes: a Router spreads requests
// least-backlog-first over the
// replicas' exported Snapshot EWMAs, actively health-checks each one
// (/healthz probe loop with exponential backoff, re-admission only
// after consecutive successes), wraps each in a circuit breaker
// (closed → open on consecutive failures → half-open probes), and
// retries a failed attempt on a different replica only when
// the remaining deadline still affords that replica's calibrated
// MinSubnet walk — a guaranteed-late retry would only steal capacity,
// exactly the reasoning serve's admission controller applies inside
// one process. The sibling faultinject package wraps any Backend in a
// deterministic, seeded fault schedule (crash, hang, slow,
// error-burst, partition) so the chaos tests can prove the tier's
// invariants: every submitted request resolves to exactly one answer
// or one typed error, replica death leaks nothing, and killing one of
// three replicas under overload keeps the high-priority class inside
// its deadline budget. Both stepserve modes mount one POST /infer
// handler, InferHandler; its codec recognises an input text it has
// parsed before and submits the request keyed and unparsed
// (serve.Request.Keyed, serve.ErrInputNeeded), so a hot repeat crosses
// router and replica without a float being read; its answer is
// written and read back by the codec, without encoding/json.
package cluster

import (
	"context"
	"errors"
	"time"

	"steppingnet/internal/governor"
	"steppingnet/internal/serve"
)

// ErrTransport wraps every failure to reach or finish an exchange
// with a replica — connection refused, request timeout, torn
// connection, malformed response. It is the retriable class of error:
// the request may never have been executed, and a different replica
// may well succeed. (Contrast serve.ErrOverloaded, which is a healthy
// replica's typed refusal, retriable elsewhere but not a health
// signal, and serve.ErrBadInput, which no retry can fix.)
var ErrTransport = errors.New("cluster: transport error")

// ErrNoReplicas is returned by Router.Submit when no replica can take
// (or re-take) the request: none configured, all down or
// circuit-open, or — on a retry — none whose calibrated MinSubnet
// walk still fits in the remaining deadline.
var ErrNoReplicas = errors.New("cluster: no replica available")

// Backend is one anytime-serving replica as the router sees it: the
// transport-agnostic seam that makes an in-process serve.Server and a
// remote HTTP replica the same code path. Implementations must be
// safe for concurrent use; Submit may be called from many goroutines
// at once.
type Backend interface {
	// Submit runs one request to completion on this replica. The
	// context bounds the exchange (remote transports honor its
	// deadline; in-process backends rely on the server's own deadline
	// scheduling, which answers within the request deadline by
	// construction). Errors are typed: serve.ErrOverloaded and
	// serve.ErrClosed pass through wrapped, transport-level failures
	// wrap ErrTransport. Submit is done with req's slices (Input,
	// InputJSON) when it returns, whatever it returns — a caller may
	// reuse them at once, as InferHandler's pool does — and keeps no
	// goroutine that reads them.
	Submit(ctx context.Context, req serve.Request) (serve.Result, error)
	// Stats returns the replica's serving snapshot — the queue
	// gauges, service-time EWMA and calibration constants the router
	// routes and retries on.
	Stats(ctx context.Context) (serve.Snapshot, error)
	// Health is the liveness/readiness probe: nil means the replica
	// is accepting work (a draining or still-calibrating replica
	// reports an error even though its process is alive).
	Health(ctx context.Context) error
	// Target names the replica for stats, logs and error messages
	// (an address for remote replicas, a label for local ones).
	Target() string
	// Close releases client-side resources (idle connections, local
	// server goroutines). The Router closes its backends on Close.
	Close()
}

// Local adapts an in-process serve.Server to the Backend seam — the
// degenerate one-replica cluster, and the building block the chaos
// tests compose with faultinject to simulate whole processes dying.
type Local struct {
	// Srv is the wrapped server. The Local owns it: Close closes it.
	Srv *serve.Server
	// Name labels this replica in router stats and errors.
	Name string
}

// Submit implements Backend by calling straight into the server,
// reading the input out of its text when the request came without its
// floats and the server wants them. The context is consulted only on
// entry (the in-process server bounds its own work by the request
// deadline; there is no transport to cancel mid-flight).
func (l *Local) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	if err := ctx.Err(); err != nil {
		return serve.Result{}, ctxTransportErr(err)
	}
	res, _, err := submitText(l.Srv.Submit, req, nil)
	return res, err
}

// Stats implements Backend.
func (l *Local) Stats(ctx context.Context) (serve.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return serve.Snapshot{}, ctxTransportErr(err)
	}
	return l.Srv.Stats(), nil
}

// Health implements Backend: an open in-process server is healthy, a
// closing or closed one reports serve.ErrClosed — mirroring the 503 a
// draining HTTP replica returns from /healthz.
func (l *Local) Health(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return ctxTransportErr(err)
	}
	if !l.Srv.Healthy() {
		return serve.ErrClosed
	}
	return nil
}

// Target implements Backend.
func (l *Local) Target() string {
	if l.Name != "" {
		return l.Name
	}
	return "local"
}

// Close implements Backend by closing the wrapped server (draining
// admitted work and releasing its engines).
func (l *Local) Close() { l.Srv.Close() }

// ctxTransportErr wraps a context cancellation/timeout as the
// retriable transport class.
func ctxTransportErr(err error) error {
	return errors.Join(ErrTransport, err)
}

// walkFloor computes the cheapest answer a replica can produce — the
// calibrated wall-clock cost of walking to its configured MinSubnet —
// from its exported snapshot, reusing governor.LatencyModel.WalkTime
// so router-side affordability math and server-side scheduling math
// cannot drift apart. Returns 0 (always affordable) when the snapshot
// carries no calibration yet.
func walkFloor(snap serve.Snapshot) time.Duration {
	if len(snap.StepTimeMs) == 0 {
		return 0
	}
	lm := governor.LatencyModel{StepTime: make([]time.Duration, len(snap.StepTimeMs))}
	for i, msv := range snap.StepTimeMs {
		lm.StepTime[i] = time.Duration(msv * float64(time.Millisecond))
	}
	return lm.WalkTime(min(max(snap.MinSubnet, 1), len(lm.StepTime)))
}
