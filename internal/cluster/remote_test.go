package cluster_test

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/serve"
)

// fakeReplica is an httptest stand-in for a stepserve replica: it
// speaks the same three endpoints with the shared wire types, and the
// test flips its mode to exercise every status the Remote client must
// map back to a typed error. The mode is atomic: the race detector sees
// no happens-before edge through a socket between the test setting it
// and the handler reading it.
type fakeReplica struct {
	mode atomic.Value // "ok", "overloaded", "draining", "badinput", "boom", "garbage", "slow"
}

func (f *fakeReplica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", func(w http.ResponseWriter, r *http.Request) {
		var req cluster.InferRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch f.mode.Load() {
		case "overloaded":
			http.Error(w, serve.ErrOverloaded.Error(), http.StatusServiceUnavailable)
		case "draining":
			http.Error(w, "draining: "+serve.ErrClosed.Error(), http.StatusServiceUnavailable)
		case "badinput":
			http.Error(w, serve.ErrBadInput.Error(), http.StatusBadRequest)
		case "boom":
			http.Error(w, "internal", http.StatusInternalServerError)
		case "garbage":
			w.Write([]byte("{not json")) //nolint:errcheck — test fixture
		case "slow":
			time.Sleep(200 * time.Millisecond)
			w.WriteHeader(http.StatusOK)
			json.NewEncoder(w).Encode(cluster.InferResponse{}) //nolint:errcheck — test fixture
		default:
			json.NewEncoder(w).Encode(cluster.WireResponse(serve.Result{ //nolint:errcheck — test fixture
				Subnet: 2, Pred: 1, Logits: []float64{0, 1}, MACs: 42,
				Priority: req.Priority, DeadlineMet: true,
				QueueWait: time.Millisecond, Latency: 2 * time.Millisecond,
			}))
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.Snapshot{ //nolint:errcheck — test fixture
			Served: 7, MinSubnet: 2, StepTimeMs: []float64{1, 2, 3},
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.mode.Load() == "draining" {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok")) //nolint:errcheck — test fixture
	})
	return mux
}

// TestRemoteBackend pins the HTTP client's error taxonomy: every
// replica status maps to the same typed error the in-process backend
// would return, so the router's retry/breaker logic is
// transport-blind.
func TestRemoteBackend(t *testing.T) {
	f := new(fakeReplica)
	f.mode.Store("ok")
	ts := httptest.NewServer(f.handler())
	defer ts.Close()
	b := cluster.NewRemote(ts.URL + "/") // trailing slash tolerated
	defer b.Close()
	ctx := t.Context()

	req := serve.Request{Input: []float64{1, 2}, Deadline: 50 * time.Millisecond, Priority: 1}
	res, err := b.Submit(ctx, req)
	if err != nil {
		t.Fatalf("ok submit: %v", err)
	}
	if res.Subnet != 2 || res.Pred != 1 || res.MACs != 42 || !res.DeadlineMet ||
		res.Priority != 1 || res.QueueWait != time.Millisecond || res.Latency != 2*time.Millisecond {
		t.Fatalf("round-tripped result mangled: %+v", res)
	}

	snap, err := b.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if snap.Served != 7 || snap.MinSubnet != 2 || len(snap.StepTimeMs) != 3 {
		t.Fatalf("round-tripped snapshot mangled: %+v", snap)
	}
	if err := b.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	cases := []struct {
		mode string
		want error
	}{
		{"overloaded", serve.ErrOverloaded},
		{"draining", serve.ErrClosed},
		{"badinput", serve.ErrBadInput},
		{"boom", cluster.ErrTransport},
		{"garbage", cluster.ErrTransport},
	}
	for _, tc := range cases {
		f.mode.Store(tc.mode)
		if _, err := b.Submit(ctx, req); !errors.Is(err, tc.want) {
			t.Fatalf("mode %q: got %v, want %v", tc.mode, err, tc.want)
		}
	}

	f.mode.Store("draining")
	if err := b.Health(ctx); err == nil {
		t.Fatal("draining replica's /healthz 503 must probe unhealthy")
	}

	// A slow replica against a short context deadline is a transport
	// failure — the seam the router's attemptGrace budget leans on.
	f.mode.Store("slow")
	sctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := b.Submit(sctx, req); !errors.Is(err, cluster.ErrTransport) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out submit: got %v, want ErrTransport wrapping the deadline", err)
	}

	// A dead target: connection refused is a transport failure too.
	ts.Close()
	if _, err := b.Submit(ctx, req); !errors.Is(err, cluster.ErrTransport) {
		t.Fatalf("dead target: got %v, want ErrTransport", err)
	}
	if err := b.Health(ctx); !errors.Is(err, cluster.ErrTransport) {
		t.Fatalf("dead target health: got %v, want ErrTransport", err)
	}
	for _, bad := range []string{"ftp://host:21", "http://", "://nonsense"} {
		if _, err := cluster.NewRemote(bad).Submit(ctx, req); !errors.Is(err, cluster.ErrTransport) {
			t.Fatalf("target %q: got %v, want ErrTransport", bad, err)
		}
	}
}

// connCounter is an httptest server whose connections are counted as
// the server sees them.
type connCounter struct {
	*httptest.Server
	opened, open atomic.Int64
}

func newConnCounter(t *testing.T, h http.Handler) *connCounter {
	t.Helper()
	cc := &connCounter{Server: httptest.NewUnstartedServer(h)}
	cc.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			cc.opened.Add(1)
			cc.open.Add(1)
		case http.StateClosed, http.StateHijacked:
			cc.open.Add(-1)
		}
	}
	cc.Start()
	t.Cleanup(cc.Close)
	return cc
}

// answerPriority is a replica whose answer carries the request's
// priority as its pred, so a test can tell which request an answer
// belongs to.
var answerPriority = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	var req cluster.InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	json.NewEncoder(w).Encode(cluster.InferResponse{Subnet: 1, Pred: req.Priority, Logits: []float64{1}}) //nolint:errcheck — test fixture
})

// TestRemoteReusesOneConnection pins the keep-alive: sequential
// exchanges of every kind ride one connection.
func TestRemoteReusesOneConnection(t *testing.T) {
	ts := newConnCounter(t, answerPriority)
	rem := cluster.NewRemote(ts.URL)
	defer rem.Close()
	for i := 0; i < 20; i++ {
		// Both body forms: the input as text it arrived in, and as floats.
		req := serve.Request{Input: []float64{1, 2}, Priority: i, Deadline: time.Second}
		if i%2 == 0 {
			req.InputJSON = []byte("[1,2]")
		}
		res, err := rem.Submit(context.Background(), req)
		if err != nil || res.Pred != i {
			t.Fatalf("submit %d: %+v, %v", i, res, err)
		}
	}
	if got := ts.opened.Load(); got != 1 {
		t.Fatalf("20 sequential submits opened %d connections, want 1", got)
	}
}

// TestRemoteRetriesAConnectionClosedWhileIdle: a replica that closes a
// connection as soon as it goes idle leaves the pool holding dead ones.
// Each submit after the first finds its pooled connection dead before a
// byte of answer arrives, retries once on a fresh one, and gets its own
// answer; the replica sees every request exactly once.
func TestRemoteRetriesAConnectionClosedWhileIdle(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		answerPriority(w, r)
	}))
	var opened atomic.Int64
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
		case http.StateIdle:
			c.Close()
		}
	}
	ts.Start()
	defer ts.Close()
	rem := cluster.NewRemote(ts.URL)
	defer rem.Close()
	const n = 10
	for i := 1; i <= n; i++ {
		res, err := rem.Submit(t.Context(), serve.Request{Input: []float64{1}, Priority: i, Deadline: time.Second})
		if err != nil || res.Pred != i {
			t.Fatalf("submit %d over a connection the replica closed: %+v, %v", i, res, err)
		}
	}
	if served.Load() != n || opened.Load() != n {
		t.Fatalf("%d submits: the replica served %d requests over %d connections, want %d and %d", n, served.Load(), opened.Load(), n, n)
	}
}

// rawReplica answers each request on a connection with the next of
// its scripted responses, written as given with one write, then closes
// the connection when the script says so. It counts the connections it
// accepts.
type rawReplica struct {
	ln       net.Listener
	mu       sync.Mutex
	script   []rawAnswer
	accepted atomic.Int64
}

type rawAnswer struct {
	bytes string
	close bool
}

func newRawReplica(t *testing.T, script ...rawAnswer) *rawReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rr := &rawReplica{ln: ln, script: script}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			rr.accepted.Add(1)
			go rr.serve(conn)
		}
	}()
	return rr
}

func (rr *rawReplica) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return
		}
		rr.mu.Lock()
		ans := rr.script[0]
		rr.script = rr.script[1:]
		rr.mu.Unlock()
		if _, err := conn.Write([]byte(ans.bytes)); err != nil || ans.close {
			return
		}
	}
}

func (rr *rawReplica) url() string { return "http://" + rr.ln.Addr().String() }

func okAnswer(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

// TestRemoteRefusesMalformedAnswers: an answer that says more than it
// frames, one cut short, and one whose body has data after the object
// are each ErrTransport, and the connection that carried it is never
// used again — the next submit dials, and gets its own answer; a
// chunked one after that is read whole and keeps its connection.
func TestRemoteRefusesMalformedAnswers(t *testing.T) {
	const good = `{"subnet":1,"pred":7,"logits":[1],"macs":0,"priority":0,"deadline_met":true,"queue_wait_ms":0,"latency_ms":0}` + "\n"
	for _, bad := range []struct {
		name string
		ans  rawAnswer
	}{
		{"bytes after the framed body", rawAnswer{bytes: okAnswer(good) + "HTTP/1.1 200 OK\r\n"}},
		{"body shorter than its length", rawAnswer{bytes: strings.Replace(okAnswer(good), "Content-Length: ", "Content-Length: 1", 1), close: true}},
		{"data after the answer object", rawAnswer{bytes: okAnswer(good + "{}")}},
		{"a chunked answer cut short", rawAnswer{bytes: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n" + good[:8], close: true}},
	} {
		chunked := fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(good), good)
		rr := newRawReplica(t, rawAnswer{bytes: okAnswer(good)}, bad.ans, rawAnswer{bytes: okAnswer(good)}, rawAnswer{bytes: chunked}, rawAnswer{bytes: okAnswer(good)})
		rem := cluster.NewRemote(rr.url())
		req := serve.Request{Input: []float64{1}, Deadline: time.Second}
		if res, err := rem.Submit(t.Context(), req); err != nil || res.Pred != 7 {
			t.Fatalf("%s: first answer %+v, %v", bad.name, res, err)
		}
		if _, err := rem.Submit(t.Context(), req); !errors.Is(err, cluster.ErrTransport) {
			t.Fatalf("%s: got %v, want ErrTransport", bad.name, err)
		}
		for i := 0; i < 3; i++ {
			if res, err := rem.Submit(t.Context(), req); err != nil || res.Pred != 7 {
				t.Fatalf("%s: answer %d after it was %+v, %v", bad.name, i, res, err)
			}
		}
		if got := rr.accepted.Load(); got != 2 {
			t.Fatalf("%s: %d connections for 5 submits, want 2: one until the bad answer, one after", bad.name, got)
		}
		rem.Close()
	}
}

// TestRemoteContextWithoutDeadline: a context with no deadline (the
// benchmark's probe passes context.Background()) bounds nothing and
// the exchange still completes; cancelling one with no deadline ends
// the exchange at once, as ErrTransport wrapping context.Canceled, and
// the connection it was on is not reused.
func TestRemoteContextWithoutDeadline(t *testing.T) {
	// The replica holds a request of priority 3 until a token arrives or
	// the client hangs up (which it sees once the body is read).
	gate := make(chan struct{}, 1)
	ts := newConnCounter(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req cluster.InferRequest
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &req); err != nil || req.Priority == 3 {
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		json.NewEncoder(w).Encode(cluster.InferResponse{Subnet: 1, Pred: req.Priority, Logits: []float64{1}}) //nolint:errcheck — test fixture
	}))
	rem := cluster.NewRemote(ts.URL)
	defer rem.Close()
	req := serve.Request{Input: []float64{1}, Priority: 3}

	done := make(chan error, 1)
	go func() {
		res, err := rem.Submit(context.Background(), req)
		if err == nil && res.Pred != 3 {
			err = fmt.Errorf("answer %+v", res)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("no-deadline submit: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, err := rem.Submit(ctx, req)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	cancel()
	err := <-done
	if !errors.Is(err, cluster.ErrTransport) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: got %v, want ErrTransport wrapping context.Canceled", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("cancelled submit returned %v after its cancel", waited)
	}
	if res, err := rem.Submit(context.Background(), serve.Request{Input: []float64{1}, Priority: 2}); err != nil || res.Pred != 2 {
		t.Fatalf("submit after a cancel: %+v, %v", res, err)
	}
	if got := ts.opened.Load(); got != 2 {
		t.Fatalf("%d connections, want 2: the cancelled exchange's connection must not be reused", got)
	}
}

// TestRemoteConnectionBound: 100 concurrent submits against a replica
// that holds every request until 64 are in hand. Exactly 64 ever are —
// the rest wait for a connection rather than open a 65th — every
// submit is answered, and afterwards the pool keeps at most 4 idle.
func TestRemoteConnectionBound(t *testing.T) {
	var inside, most atomic.Int64
	full := make(chan struct{})
	var once sync.Once
	ts := newConnCounter(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inside.Add(1)
		defer inside.Add(-1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		if n >= 64 {
			once.Do(func() { close(full) })
		}
		select {
		case <-full:
		case <-time.After(5 * time.Second):
		}
		answerPriority(w, r)
	}))
	rem := cluster.NewRemote(ts.URL)
	defer rem.Close()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := rem.Submit(context.Background(), serve.Request{Input: []float64{1}, Priority: i}); err != nil || res.Pred != i {
				t.Errorf("submit %d: %+v, %v", i, res, err)
			}
		}()
	}
	wg.Wait()
	if got := most.Load(); got != 64 {
		t.Fatalf("at most %d requests were in the replica at once, want exactly the 64-connection bound", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ts.open.Load() > 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections stay open after the burst, want at most 4 idle", ts.open.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteTLSVerifies: an https target is dialled through crypto/tls
// with the system's roots, so a replica whose certificate they do not
// vouch for is refused — the certificate error, wrapped in
// ErrTransport.
func TestRemoteTLSVerifies(t *testing.T) {
	ts := httptest.NewUnstartedServer(answerPriority)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshake
	ts.StartTLS()
	defer ts.Close()
	rem := cluster.NewRemote(ts.URL)
	defer rem.Close()
	_, err := rem.Submit(t.Context(), serve.Request{Input: []float64{1}, Deadline: time.Second})
	var cert *tls.CertificateVerificationError
	if !errors.Is(err, cluster.ErrTransport) || !errors.As(err, &cert) ||
		!strings.Contains(err.Error(), "tls: failed to verify certificate: x509: certificate signed by unknown authority") {
		t.Fatalf("https to an unknown authority: got %v, want ErrTransport wrapping the certificate error", err)
	}
}
