package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"steppingnet/internal/governor"
	"steppingnet/internal/serve"
)

// fuzzEnv lazily builds one small model + serving stack + production
// mux shared by every fuzz execution (standing a server up per input
// would make the fuzzer useless). The ladder calibration is injected
// so no execution depends on wall-clock measurement.
var fuzzEnv struct {
	once sync.Once
	mux  *http.ServeMux
	err  error
}

func fuzzMux(t testing.TB) *http.ServeMux {
	fuzzEnv.once.Do(func() {
		m, err := buildServeModel("lenet3c1l", 4, 8, 1.5, 3, 7, false)
		if err != nil {
			fuzzEnv.err = err
			return
		}
		cal := governor.LatencyModel{
			StepMACs: governor.StepCosts(m, 3),
			StepTime: []time.Duration{time.Nanosecond, time.Nanosecond, time.Nanosecond},
		}
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 3, Workers: 1, QueueDepth: 16,
			PriorityClasses: 2, Calibration: cal,
			DefaultDeadline: 50 * time.Millisecond,
			// With the cache armed a body the fuzzer repeats takes the
			// handler's known-text path into Submit's inline answer.
			CacheEntries: 64,
		})
		if err != nil {
			fuzzEnv.err = err
			return
		}
		// The server (and its goroutines) lives for the whole fuzz
		// process; the OS reaps it — Close here would race the final
		// executions.
		a := newApp(7)
		a.setReady(srv, m)
		fuzzEnv.mux = newMux(a)
	})
	if fuzzEnv.err != nil {
		t.Fatal(fuzzEnv.err)
	}
	return fuzzEnv.mux
}

// FuzzInferHandler throws malformed bodies and priority headers at
// the production POST /infer handler chain: truncated and deeply
// nested JSON, wrong-shaped inputs, NaN/Inf/negative/huge deadlines,
// absurd priorities. The handler must never panic and must answer
// every request with one of its documented statuses — 200 with a
// well-formed JSON answer, 400 for bad input, 503 for overload. The
// committed seed corpus pins the interesting shapes.
func FuzzInferHandler(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"deadline_ms": 5}`,
		`{"deadline_ms": -3, "priority": 1}`,
		`{"deadline_ms": 1e308}`,
		`{"deadline_ms": -1e308}`,
		`{"input": []}`,
		`{"input": [1,2,3]}`,
		`{"input": [1e309]}`,
		`{"priority": -99}`,
		`{"priority": 99999999}`,
		`{"input": null, "deadline_ms": null}`,
		`{"input": "not an array"}`,
		`not json at all`,
		`{"input": [`,
		`[[[[[[[[[[`,
		``,
		`{"deadline_ms": 0.0000001}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), "")
	}
	f.Add([]byte(`{}`), "1")
	f.Add([]byte(`{}`), "-7")
	f.Add([]byte(`{}`), "not-a-number")
	f.Add([]byte(`{}`), "999999999999999999999999")

	f.Fuzz(func(t *testing.T, body []byte, prio string) {
		mux := fuzzMux(t)
		req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body))
		if prio != "" {
			req.Header.Set(priorityHeader, prio)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			// A 200 must carry a JSON answer naming a real subnet.
			if !bytes.Contains(rec.Body.Bytes(), []byte(`"subnet"`)) {
				t.Fatalf("200 without an answer body: %q", rec.Body.String())
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			// Documented rejections.
		default:
			t.Fatalf("undocumented status %d for body %q header %q (response %q)",
				rec.Code, body, prio, rec.Body.String())
		}
	})
}
