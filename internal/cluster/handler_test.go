package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/cluster/faultinject"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/serve"
	"steppingnet/internal/tensor"
)

// inferBody is the /infer request as encoding/json reads it with no
// help from the codec: the tests' independent view of what was sent.
type inferBody struct {
	Input      []float64 `json:"input"`
	DeadlineMs float64   `json:"deadline_ms"`
	Priority   int       `json:"priority"`
}

// encodeInfer writes a request body the way a client with a JSON
// library would.
func encodeInfer(t testing.TB, input []float64, deadlineMs float64) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input, "deadline_ms": deadlineMs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// ladderLogits walks input up the model's ladder on a private engine
// and returns each rung's logits: the reference every served answer
// for that input must equal bitwise, however it was produced.
func ladderLogits(t testing.TB, m *models.Model, input []float64, rungs int) [][]float64 {
	t.Helper()
	e := infer.NewEngine(m.Net)
	defer e.Close()
	x := tensor.New(1, m.InC, m.InH, m.InW)
	copy(x.Data(), input)
	e.Reset(x)
	out := make([][]float64, rungs+1)
	for s := 1; s <= rungs; s++ {
		o, _, err := e.Step(s)
		if err != nil {
			t.Fatal(err)
		}
		out[s] = append([]float64(nil), o.Data()...)
	}
	return out
}

var errRefused = errors.New("503")

func postInfer(client *http.Client, url string, body []byte) (cluster.InferResponse, error) {
	var ans cluster.InferResponse
	resp, err := client.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return ans, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return ans, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return ans, errRefused
	}
	if resp.StatusCode != http.StatusOK {
		return ans, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	return ans, json.Unmarshal(blob, &ans)
}

// TestInferHandlerBufferReuse is the test that fails if a pooled body
// or input slice goes back to the pool while the serving layer can
// still read it: a replica-mode handler (buffers recycled) over a
// server with the cache armed, driven from several connections at once,
// every one with inputs of its own, mixing unmeetable deadlines (a
// rung-1 answer that leaves a resumable entry behind) with generous
// ones (resumes and hits). Every answer must be, bitwise, the
// reference walk of the input that asked for it. Run with -race
// -count=10.
func TestInferHandlerBufferReuse(t *testing.T) {
	m := buildModel(901)
	imgLen := m.InC * m.InH * m.InW
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 3, Workers: 2, QueueDepth: 64, MaxBatch: 4, PriorityClasses: 2,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
		CacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(&cluster.InferHandler{
		Submit:   srv.Submit,
		InputLen: func() int { return imgLen },
	})
	defer ts.Close()

	const clients, perClient, rounds = 6, 5, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for k := 0; k < perClient; k++ {
				in := inputVec(uint64(1000+c*perClient+k), imgLen)
				want := ladderLogits(t, m, in, 3)
				for round := 0; round < rounds; round++ {
					deadline := 1e-6 // unmeetable: answered at the rung-1 floor
					if round%2 == 1 {
						deadline = 3.6e6
					}
					ans, err := postInfer(client, ts.URL, encodeInfer(t, in, deadline))
					if errors.Is(err, errRefused) {
						continue // an unmeetable deadline behind a backlog is fast-failed
					}
					if err != nil {
						t.Errorf("client %d input %d round %d: %v", c, k, round, err)
						return
					}
					if ans.Subnet < 1 || ans.Subnet > 3 || len(ans.Logits) != len(want[1]) {
						t.Errorf("client %d input %d round %d: malformed answer %+v", c, k, round, ans)
						return
					}
					for i, v := range ans.Logits {
						if math.Float64bits(v) != math.Float64bits(want[ans.Subnet][i]) {
							t.Errorf("client %d input %d round %d: rung %d logit[%d] = %v, reference walk of this input says %v (hit=%v resumed=%v)",
								c, k, round, ans.Subnet, i, v, want[ans.Subnet][i], ans.CacheHit, ans.Resumed)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// witness is a Backend that checks, at the moment the wrapped replica
// would start reading them, that a request's input and its carried
// JSON text still are what the client sent. Inputs carry their index
// into want in element 0.
type witness struct {
	cluster.Backend
	t    *testing.T
	want [][]float64
}

func (w *witness) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	id := -1
	if len(req.Input) > 0 && req.Input[0] >= 0 && req.Input[0] < float64(len(w.want)) {
		id = int(req.Input[0])
	}
	var fromText []float64
	if err := json.Unmarshal(req.InputJSON, &fromText); err != nil {
		w.t.Errorf("%s: carried input text %.40q does not parse: %v", w.Target(), req.InputJSON, err)
	}
	if id < 0 || !sameBits(req.Input, w.want[id]) || !sameBits(fromText, w.want[id]) {
		w.t.Errorf("%s: request %d arrived with input %.3v… / text %.60q, not what its client sent",
			w.Target(), id, req.Input[:min(len(req.Input), 4)], req.InputJSON)
	}
	return w.Backend.Submit(ctx, req)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRouterRetryKeepsRequestBytes is the router half of the
// buffer-reuse contract: a router-mode handler (buffers pooled) over
// two witnessed replicas, one of which fails every request it is
// handed with a transport error, so about half the requests are
// retried on the other. Every attempt, first or retry, must reach its
// replica with its own client's input and input text, and every answer
// must be, bitwise, the reference walk of that input. Run with -race
// -count=10.
func TestRouterRetryKeepsRequestBytes(t *testing.T) {
	m := buildModel(902)
	imgLen := m.InC * m.InH * m.InW
	const clients, perClient = 4, 12
	want := make([][]float64, clients*perClient)
	for i := range want {
		want[i] = inputVec(uint64(2000+i), imgLen)
		want[i][0] = float64(i)
	}
	var backends []cluster.Backend
	for _, name := range []string{"failing", "healthy"} {
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 3, Workers: 2, QueueDepth: 64, PriorityClasses: 2,
			Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b cluster.Backend = &cluster.Local{Srv: srv, Name: name}
		if name == "failing" {
			b = faultinject.Wrap(b, faultinject.Fault{Kind: faultinject.ErrorBurst})
		}
		backends = append(backends, &witness{Backend: b, t: t, want: want})
	}
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends: backends, ProbeInterval: -1, DefaultDeadline: 5 * time.Second,
		// The failing replica stays in the rotation, so first attempts
		// keep landing on it and keep being retried.
		BreakerThreshold: math.MaxInt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	ts := httptest.NewServer(&cluster.InferHandler{Submit: ro.Submit})
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for k := 0; k < perClient; k++ {
				id := c*perClient + k
				ans, err := postInfer(client, ts.URL, encodeInfer(t, want[id], 0))
				if err != nil {
					t.Errorf("request %d: %v", id, err)
					return
				}
				if ref := ladderLogits(t, m, want[id], 3); !sameBits(ans.Logits, ref[ans.Subnet]) {
					t.Errorf("request %d: rung %d logits are not the reference walk of its input", id, ans.Subnet)
				}
			}
		}()
	}
	wg.Wait()
	st := ro.Stats()
	if st.Retries == 0 || st.Retries != st.Replicas[0].TransportErrors || st.Failed != 0 {
		t.Fatalf("router stats %+v: want every failed attempt retried, at least one, and no request failed", st)
	}
}

// TestOverflowingInputIsNotBreakerEvidence: an input that overflows
// the model — every element 1e308, valid JSON — drives its logits to
// NaN, which JSON cannot carry. The answer used to fail after the
// handler had committed to a 200, so the client got a 200 with an empty
// body, and through a Remote that empty body was a transport error:
// breaker evidence, so five such requests took the only replica out of
// the router for its cooldown. Now the handler answers 400 naming the
// value, directly and through the router; the router counts bad inputs,
// its breaker stays closed and the next good request is served.
func TestOverflowingInputIsNotBreakerEvidence(t *testing.T) {
	m := buildModel(951)
	imgLen := m.InC * m.InH * m.InW
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 3, Workers: 1, Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	replica := httptest.NewServer(&cluster.InferHandler{Submit: srv.Submit, InputLen: func() int { return imgLen }})
	defer replica.Close()
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends: []cluster.Backend{cluster.NewRemote(replica.URL)}, ProbeInterval: -1, DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	router := httptest.NewServer(&cluster.InferHandler{Submit: ro.Submit})
	defer router.Close()

	overflow := []byte(`{"input":[` + strings.Repeat("1e308,", imgLen-1) + `1e308]}`)
	const sent = 6 // one past the breaker's default threshold
	for _, hop := range []struct{ name, url string }{{"direct", replica.URL}, {"through the router", router.URL}} {
		for i := 0; i < sent; i++ {
			resp, err := http.Post(hop.url+"/infer", "application/json", bytes.NewReader(overflow))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "logits[0] is NaN") {
				t.Fatalf("%s, overflowing input %d: status %d %q, want a 400 naming the logit", hop.name, i, resp.StatusCode, msg)
			}
		}
	}
	if rs := ro.Stats().Replicas[0]; rs.Breaker != "closed" || rs.BadInputs != sent || rs.TransportErrors != 0 {
		t.Fatalf("after %d overflowing inputs the router holds the replica as %+v, want its breaker closed and %d bad inputs", sent, rs, sent)
	}
	in := inputVec(952, imgLen)
	ans, err := postInfer(http.DefaultClient, router.URL, encodeInfer(t, in, 0))
	if err != nil {
		t.Fatalf("the good request after them: %v", err)
	}
	if ref := ladderLogits(t, m, in, 3); !sameBits(ans.Logits, ref[ans.Subnet]) {
		t.Fatalf("the good request after them: rung %d logits are not the reference walk's", ans.Subnet)
	}
}

// TestHopForwardsInputText pins what crosses the hop: the body Remote
// sends for a routed request is valid JSON whose input is the client's
// array text verbatim (so bitwise its numbers), with what is left of
// the deadline the router resolved — its default for a request that
// named none — and the priority it resolved: the X-Priority header
// when the body had no priority. A Remote.Submit with no carried text formats the floats
// itself, to a body encoding/json decodes to the same request as ever.
func TestHopForwardsInputText(t *testing.T) {
	var mu sync.Mutex
	var sent []byte
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		blob, _ := io.ReadAll(r.Body)
		mu.Lock()
		sent = blob
		mu.Unlock()
		json.NewEncoder(w).Encode(cluster.WireResponse(serve.Result{Subnet: 1, Logits: []float64{1}})) //nolint:errcheck — test fixture
	}))
	defer replica.Close()
	rem := cluster.NewRemote(replica.URL)
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends: []cluster.Backend{rem}, ProbeInterval: -1, DefaultDeadline: 70 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	router := httptest.NewServer(&cluster.InferHandler{Submit: ro.Submit})
	defer router.Close()

	in := append(inputVec(77, 24), 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e21, 1e-7, 0.30000000000000004)
	text := new(bytes.Buffer)
	for i, v := range in {
		sep := ", "
		if i%2 == 0 {
			sep = ","
		}
		if i == 0 {
			sep = "[ "
		}
		text.WriteString(sep)
		// Not the shortest form on purpose: the text must cross as
		// written, not as the router would have written it.
		text.WriteString(strconv.FormatFloat(v, 'e', 20, 64))
	}
	text.WriteString(" ]")
	arr := text.String()

	cases := []struct {
		name, body, header string
		deadlineMs         float64
		priority           int
	}{
		{"input first", `{"input":` + arr + `,"deadline_ms":12.5,"priority":1}`, "", 12.5, 1},
		{"input last", `{"priority":1,"deadline_ms":12.5,"input":` + arr + `}`, "", 12.5, 1},
		{"input in the middle, unknown keys around", `{"a":[1,{"input":[9]}],"deadline_ms":3,"input":` + arr + `,"z":"input"}`, "", 3, 0},
		{"no deadline takes the router's default", `{"input":` + arr + `}`, "", 70, 0},
		{"zero deadline takes the router's default", `{"input":` + arr + `,"deadline_ms":0}`, "", 70, 0},
		{"header priority travels in the body", `{"input":` + arr + `,"deadline_ms":4}`, "2", 4, 2},
		{"body priority beats the header", `{"input":` + arr + `,"priority":1}`, "2", 70, 1},
		{"last duplicate wins", `{"input":[1,2,3],"input":` + arr + `}`, "", 70, 0},
		{"folded key", `{"INPUT":` + arr + `,"Deadline_MS":9}`, "", 9, 0},
	}
	check := func(name string, wantDeadline float64, wantPriority int) inferBody {
		t.Helper()
		mu.Lock()
		blob := sent
		mu.Unlock()
		if !json.Valid(blob) {
			t.Fatalf("%s: Remote sent invalid JSON: %.200q", name, blob)
		}
		var got inferBody
		if err := json.Unmarshal(blob, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameBits(got.Input, in) {
			t.Fatalf("%s: forwarded input differs from the client's: %.200q", name, blob)
		}
		// What is left of the deadline crosses, never the whole of it.
		if got.DeadlineMs <= 0 || got.DeadlineMs > wantDeadline || got.Priority != wantPriority {
			t.Fatalf("%s: forwarded deadline_ms %v priority %d, want what is left of %v and %d", name, got.DeadlineMs, got.Priority, wantDeadline, wantPriority)
		}
		return got
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, router.URL+"/infer", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		if tc.header != "" {
			req.Header.Set(cluster.PriorityHeader, tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — drained for connection reuse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, resp.StatusCode)
		}
		check(tc.name, tc.deadlineMs, tc.priority)
		mu.Lock()
		verbatim := bytes.Contains(sent, []byte(arr))
		mu.Unlock()
		if !verbatim {
			t.Fatalf("%s: the input text was re-encoded on its way across the hop", tc.name)
		}
	}

	// No text to forward: loadgen, tests, the benchmark's Remote probe.
	if _, err := rem.Submit(context.Background(), serve.Request{Input: in, Deadline: 1500 * time.Microsecond, Priority: 3}); err != nil {
		t.Fatal(err)
	}
	check("no carried text", 1.5, 3)
}

// TestHugeDeadlineSaturates pins that a deadline_ms too large for a
// Duration means the longest deadline a float64 can name (2^63-1024 ns,
// 292 years) — on the replica a client talks to and again on the far
// side of a hop, where it arrives written in float milliseconds —
// instead of wrapping into a negative one, which Submit serves under
// the default. Zero and negative deadlines reach Submit as they always
// did.
func TestHugeDeadlineSaturates(t *testing.T) {
	got := make(chan time.Duration, 1)
	replica := httptest.NewServer(&cluster.InferHandler{Submit: func(req serve.Request) (serve.Result, error) {
		got <- req.Deadline
		return serve.Result{Subnet: 1, Logits: []float64{1}}, nil
	}})
	defer replica.Close()
	rem := cluster.NewRemote(replica.URL)
	defer rem.Close()
	router := httptest.NewServer(&cluster.InferHandler{Submit: func(req serve.Request) (serve.Result, error) {
		return rem.Submit(context.Background(), req)
	}})
	defer router.Close()

	const forever = time.Duration(1<<63 - 1024)
	for _, tc := range []struct {
		ms   string
		want time.Duration
	}{
		{"1e300", forever}, {"1e308", forever}, {"9.3e12", forever}, {"9223372036854.775807", forever}, {"9223372036854.777", forever},
		{"9223372036854.773", 9223372036854773760}, {"5", 5 * time.Millisecond}, {"0.001", time.Microsecond},
		{"0", 0}, {"-3", -3 * time.Millisecond}, {"-1e300", math.MinInt64},
	} {
		for _, hop := range []struct{ name, url string }{{"direct", replica.URL}, {"through a Remote", router.URL}} {
			resp, err := http.Post(hop.url+"/infer", "application/json", bytes.NewReader([]byte(`{"input":[1],"deadline_ms":`+tc.ms+`}`)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — drained for connection reuse
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("deadline_ms %s, %s: status %d", tc.ms, hop.name, resp.StatusCode)
			}
			if d := <-got; d != tc.want {
				t.Fatalf("deadline_ms %s, %s: Submit saw %d ns (%v), want %d", tc.ms, hop.name, d, d, tc.want)
			}
		}
	}
}
