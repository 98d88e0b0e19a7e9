package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"steppingnet/internal/serve"
)

// remoteMaxResp bounds how much of a replica's response body the
// client will read — a corrupted or hostile replica must not be able
// to balloon the router's memory.
const remoteMaxResp = 8 << 20

// Remote is the HTTP implementation of Backend: one stepserve replica
// reached over its JSON surface (POST /infer, GET /stats, GET
// /healthz). Every request carries the caller's context deadline, and
// the underlying transport bounds connection reuse (a handful of
// warm connections per replica; idle ones expire) so a flapping
// replica cannot accumulate sockets. Create with NewRemote.
type Remote struct {
	target string
	client *http.Client
}

// NewRemote builds a Remote for a base URL like "http://host:8080"
// (a trailing slash is tolerated). The client enforces per-request
// context deadlines and keeps at most a few idle connections to the
// replica.
func NewRemote(target string) *Remote {
	return &Remote{
		target: strings.TrimRight(target, "/"),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        8,
				MaxIdleConnsPerHost: 4,
				MaxConnsPerHost:     64,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// Submit implements Backend: POST /infer with the wire payload (the
// input forwarded as the text it arrived in when req carries it —
// see appendInferRequest), mapping the replica's documented statuses
// back to the typed errors the in-process server returns — 503 to
// serve.ErrOverloaded (or serve.ErrClosed when the replica says it is
// draining), 400 to serve.ErrBadInput, anything transport-shaped to
// ErrTransport. Each call builds its own body, never touched again
// once handed to the transport, so concurrent retries and hedges of
// one request share nothing but the read-only req.
func (r *Remote) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	size := len(req.InputJSON)
	if req.InputJSON == nil {
		size = len(req.Input) * 25 // the longest shortest-round-trip float64, and its comma
	}
	body, err := appendInferRequest(make([]byte, 0, size+64), req)
	if err != nil {
		return serve.Result{}, fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.target+"/infer", bytes.NewReader(body))
	if err != nil {
		return serve.Result{}, fmt.Errorf("%w: %v", ErrTransport, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(hreq)
	if err != nil {
		return serve.Result{}, fmt.Errorf("%w: %s: %v", ErrTransport, r.target, err)
	}
	defer drain(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		var wire InferResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, remoteMaxResp)).Decode(&wire); err != nil {
			return serve.Result{}, fmt.Errorf("%w: %s: bad answer body: %v", ErrTransport, r.target, err)
		}
		return wire.Result(), nil
	case http.StatusServiceUnavailable:
		msg := readErr(resp.Body)
		if strings.Contains(msg, serve.ErrClosed.Error()) || strings.Contains(msg, "draining") {
			return serve.Result{}, fmt.Errorf("%w: %s: %s", serve.ErrClosed, r.target, msg)
		}
		return serve.Result{}, fmt.Errorf("%w: %s: %s", serve.ErrOverloaded, r.target, msg)
	case http.StatusBadRequest:
		return serve.Result{}, fmt.Errorf("%w: %s: %s", serve.ErrBadInput, r.target, readErr(resp.Body))
	default:
		return serve.Result{}, fmt.Errorf("%w: %s: unexpected status %d: %s",
			ErrTransport, r.target, resp.StatusCode, readErr(resp.Body))
	}
}

// Stats implements Backend: GET /stats.
func (r *Remote) Stats(ctx context.Context) (serve.Snapshot, error) {
	var snap serve.Snapshot
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.target+"/stats", nil)
	if err != nil {
		return snap, fmt.Errorf("%w: %v", ErrTransport, err)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return snap, fmt.Errorf("%w: %s: %v", ErrTransport, r.target, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%w: %s: /stats status %d", ErrTransport, r.target, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, remoteMaxResp)).Decode(&snap); err != nil {
		return snap, fmt.Errorf("%w: %s: bad stats body: %v", ErrTransport, r.target, err)
	}
	return snap, nil
}

// Health implements Backend: GET /healthz, where anything but a 200
// — including a clean 503 from a draining or still-calibrating
// replica — means "send no work here".
func (r *Remote) Health(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.target+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrTransport, r.target, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: /healthz status %d: %s", r.target, resp.StatusCode, readErr(resp.Body))
	}
	return nil
}

// Target implements Backend.
func (r *Remote) Target() string { return r.target }

// Close implements Backend by dropping the warm connection pool.
func (r *Remote) Close() {
	if t, ok := r.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// drain consumes and closes a response body so the connection can be
// reused (an abandoned body forces a fresh TCP handshake per call).
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, remoteMaxResp)) //nolint:errcheck — best-effort reuse
	body.Close()
}

// readErr pulls a short error message out of a non-200 body.
func readErr(body io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(body, 512))
	return strings.TrimSpace(string(b))
}
