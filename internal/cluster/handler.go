package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"steppingnet/internal/serve"
)

// PriorityHeader is the request header carrying the priority class
// when the JSON body doesn't (proxies and gateways set headers more
// easily than they rewrite bodies).
const PriorityHeader = "X-Priority"

// InferHandler is the one POST /infer handler: a replica mounts it
// over its serve.Server, a router over its Router. Everything the two
// share — the method and readiness gates, the bounded body read, the
// request codec, the X-Priority header, the error → status map, the
// answer codec — lives here and nowhere else. A request's buffers come
// from a pool and go back when the handler returns, so Submit must be
// done with the request's slices when it returns, as every Backend is.
type InferHandler struct {
	// NotReady returns why the process takes no work right now
	// (starting, draining), or "" when it does. A reason is a 503. Nil
	// is always ready.
	NotReady func() string
	// Submit answers one decoded request.
	Submit func(serve.Request) (serve.Result, error)
	// InputLen returns the served model's input length, which scales
	// the body cap (a float64 is at most 25 JSON characters plus its
	// separator) and sizes the Fallback input. Nil when the process
	// has no model to scale from, as a router: the cap is then a flat
	// 8 MiB. Called only once NotReady has returned "".
	InputLen func() int
	// Fallback supplies the input of a request that carries none
	// (smoke tests). Nil passes the absent input on to Submit.
	Fallback func(n int) []float64

	// memo recognises input texts this handler has parsed before.
	memo textMemo
}

// DecodeRequest reads one POST /infer body into the request Submit
// gets, as ServeHTTP does: the input numbers land in scratch's backing
// array (grown when short) — unless the handler has parsed the same
// array text before, when Input stays nil beside the text and the key
// of the numbers it spells (see serve.Request.Keyed).
func (h *InferHandler) DecodeRequest(body []byte, scratch []float64) (serve.Request, error) {
	var req InferRequest
	in, err := req.decode(body, scratch, &h.memo)
	return serve.Request{
		Input: req.Input, InputJSON: in.text, Key: in.key, Keyed: in.keyed,
		// Clamped to what a Duration holds (0x1p63-1024 is the largest
		// float64 below 2^63), here and again after a hop: 1e300 asks for
		// forever, not for the wrapped, negative "none given".
		Deadline: time.Duration(min(max(req.DeadlineMs*float64(time.Millisecond), math.MinInt64), 0x1p63-1024)),
		Priority: req.Priority,
	}, err
}

// submitText submits req and, when the server asks for the floats a
// recognised text left unread, reads them out of the text into scratch
// and submits again — without the key: what a walk stores, it stores
// under the key of the floats it walked, so a text forged to match
// another's mark misleads only its own request. input is the floats the
// request ended with, if any.
func submitText(submit func(serve.Request) (serve.Result, error), req serve.Request, scratch []float64) (res serve.Result, input []float64, err error) {
	if res, err = submit(req); err != serve.ErrInputNeeded {
		return res, req.Input, err
	}
	slots := floatSlots{buf: scratch[:cap(scratch)]}
	if req.Input, _, _, err = slots.decode(req.InputJSON, 0); err != nil {
		return serve.Result{}, nil, fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	req.Keyed = false
	res, err = submit(req)
	return res, req.Input, err
}

// inferBufs are one request's buffers: the raw body, the decoded input
// and the written answer. Whoever Gets them owns them until Put.
type inferBufs struct {
	body   bytes.Buffer
	input  []float64
	answer []byte
}

var inferPool = sync.Pool{New: func() any { return new(inferBufs) }}

// ServeHTTP implements http.Handler.
func (h *InferHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if h.NotReady != nil {
		if msg := h.NotReady(); msg != "" {
			http.Error(w, msg, http.StatusServiceUnavailable)
			return
		}
	}
	// Unbounded bodies are a trivial memory DoS.
	n, limit := 0, int64(8<<20)
	if h.InputLen != nil {
		n = h.InputLen()
		limit = max(int64(n)*32+4096, 1<<20) // the floor keeps room for metadata on tiny models
	}
	bufs := inferPool.Get().(*inferBufs)
	defer inferPool.Put(bufs)
	// One buffer of the declared length (plus the spare ReadFrom wants
	// before it can see EOF) instead of a doubling series; a length
	// declared over the limit is refused before a byte of it is read.
	err := error(&http.MaxBytesError{Limit: limit})
	if r.ContentLength <= limit {
		bufs.body.Reset()
		bufs.body.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead)
		_, err = bufs.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	req, err := h.DecodeRequest(bufs.body.Bytes(), bufs.input[:0])
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if hdr := r.Header.Get(PriorityHeader); hdr != "" && req.Priority == 0 {
		if req.Priority, err = strconv.Atoi(hdr); err != nil {
			http.Error(w, fmt.Sprintf("bad %s header %q", PriorityHeader, hdr), http.StatusBadRequest)
			return
		}
	}
	if req.Input == nil && !req.Keyed && h.Fallback != nil {
		req.Input = h.Fallback(n)
	}
	res, input, err := submitText(h.Submit, req, bufs.input[:0])
	if cap(input) > cap(bufs.input) {
		bufs.input = input
	}
	if err == nil {
		// An input that overflows the model has an answer JSON cannot
		// carry: a 400, which no router holds against the replica.
		if bufs.answer, err = appendInferResponse(bufs.answer[:0], WireResponse(res)); err != nil {
			err = fmt.Errorf("%w: no JSON answer: %v", serve.ErrBadInput, err)
		}
	}
	if err != nil {
		http.Error(w, err.Error(), inferStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(bufs.answer) //nolint:errcheck — a client gone mid-answer has nothing to be told
}

// inferStatus maps a Submit error to its documented HTTP status; the
// inverse of the mapping in Remote.Submit.
func inferStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed), errors.Is(err, ErrNoReplicas):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTransport):
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}
