package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/governor"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
)

// TestInferBodyLimitsBothModes drives the replica's and the router's
// production muxes with the bodies the two used to disagree on or
// mislabel: an over-limit body is 413 (it was cut short and reported
// as a 400 "unexpected EOF"), whether its length is declared or only
// found by reading; data after the request object is 400 (it was
// silently ignored); and a body between the replica's model-scaled cap
// and the router's flat 8 MiB is refused only by the replica.
func TestInferBodyLimitsBothModes(t *testing.T) {
	muxes := bothMuxes(t)
	input := "[" + strings.TrimSuffix(strings.Repeat("0.5,", 3*8*8), ",") + "]"
	padded := func(n int) string { // a valid request n bytes long
		head := `{"input":` + input + `,"pad":"`
		return head + strings.Repeat("x", n-len(head)-2) + `"}`
	}
	const replicaCap, routerCap = 1 << 20, 8 << 20
	cases := []struct {
		name, body      string
		replica, router int
	}{
		{"plain", `{"input":` + input + `}`, 200, 200},
		{"at the replica cap", padded(replicaCap), 200, 200},
		{"over the replica cap", padded(replicaCap + 1), 413, 200},
		{"at the router cap", padded(routerCap), 413, 200},
		{"over the router cap", padded(routerCap + 1), 413, 413},
		{"trailing garbage", `{"input":` + input + `}garbage`, 400, 400},
		{"second object", `{"input":` + input + `} {}`, 400, 400},
		{"trailing whitespace", `{"input":` + input + "}\r\n", 200, 200},
		{"truncated", `{"input":[0.5,0.5`, 400, 400},
		{"wrong length", `{"input":[0.5,0.5]}`, 400, 400},
	}
	for _, tc := range cases {
		for mode, mux := range muxes {
			want := tc.replica
			if mode == "router" {
				want = tc.router
			}
			for _, declared := range []bool{true, false} {
				var body io.Reader = strings.NewReader(tc.body)
				if !declared {
					body = struct{ io.Reader }{body} // hides the length: Content-Length unknown
				}
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", body))
				if rec.Code != want {
					t.Errorf("%s, %s, length declared=%v: status %d, want %d (%s)",
						tc.name, mode, declared, rec.Code, want, bytes.TrimSpace(rec.Body.Bytes()[:min(rec.Body.Len(), 120)]))
				}
			}
		}
	}
}

// bothMuxes builds the production muxes of both modes over a small
// cache-less model: a ready replica, and a router over one in-process
// replica. Cleanup closes the servers and the router.
func bothMuxes(t *testing.T) map[string]*http.ServeMux {
	t.Helper()
	m, err := buildServeModel("lenet3c1l", 4, 8, 1.5, 3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	newServer := func() *serve.Server {
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 3, Workers: 1, QueueDepth: 16, PriorityClasses: 2,
			Calibration: governor.LatencyModel{
				StepMACs: governor.StepCosts(m, 3),
				StepTime: []time.Duration{time.Nanosecond, time.Nanosecond, time.Nanosecond},
			},
			DefaultDeadline: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	a := newApp(7)
	srv := newServer()
	t.Cleanup(srv.Close)
	a.setReady(srv, m)
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      []cluster.Backend{&cluster.Local{Srv: newServer(), Name: "r0"}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ro.Close)
	return map[string]*http.ServeMux{"replica": newMux(a), "router": newRouterMux(ro, new(atomic.Bool))}
}

// TestStatsCountKnownInputs pins the two counters the known-text path
// is observed by, on both modes' /stats, beside the fields that were
// already there: inputs_known (requests whose numbers this process
// never parsed) and, on a replica, inline_hits (answers given before
// the queue).
func TestStatsCountKnownInputs(t *testing.T) {
	m, err := buildServeModel("lenet3c1l", 4, 8, 1.5, 3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	newServer := func() *serve.Server {
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 3, Workers: 1, CacheEntries: 8,
			Calibration: governor.LatencyModel{
				StepMACs: governor.StepCosts(m, 3),
				StepTime: []time.Duration{time.Nanosecond, time.Nanosecond, time.Nanosecond},
			},
			DefaultDeadline: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	a := newApp(7)
	servers := map[string]*serve.Server{"replica": newServer(), "router": newServer()}
	defer servers["replica"].Close()
	a.setReady(servers["replica"], m)
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      []cluster.Backend{&cluster.Local{Srv: servers["router"], Name: "r0"}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	input := make([]float64, 3*8*8)
	for i := range input {
		input[i] = 0.25
	}
	body := `{"input":[` + strings.TrimSuffix(strings.Repeat("0.25,", len(input)), ",") + `]}`
	for mode, mux := range map[string]*http.ServeMux{"replica": newMux(a), "router": newRouterMux(ro, new(atomic.Bool))} {
		for round := 0; round < 3; round++ {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
			if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"cache_hit":true`)) != (round > 0) {
				t.Fatalf("%s, round %d: status %d: %s", mode, round, rec.Code, rec.Body.Bytes())
			}
			// A worker answers first and publishes after: only then is the
			// repeat answered before the queue.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
				if _, ok := servers[mode].CachePeek(cache.KeyOf(input)); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: the walk was never published to the cache", mode)
				}
			}
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var stats map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatalf("%s /stats: %v", mode, err)
		}
		want := map[string]any{"inputs_known": 2.0, "submitted": 3.0, "served": 3.0}
		if mode == "replica" {
			want["inline_hits"], want["cache_hits"] = 2.0, 2.0
		}
		for field, v := range want {
			if stats[field] != v {
				t.Errorf("%s /stats: %s = %v, want %v", mode, field, stats[field], v)
			}
		}
	}
}
