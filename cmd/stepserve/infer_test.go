package main

import (
	"bytes"
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
)

// TestInferBodyLimitsBothModes drives the replica's and the router's
// production muxes with the bodies the two used to disagree on or
// mislabel: an over-limit body is 413 (it was cut short and reported
// as a 400 "unexpected EOF"), whether its length is declared or only
// found by reading; data after the request object is 400 (it was
// silently ignored); and a body between the replica's model-scaled cap
// and the router's flat 8 MiB is refused only by the replica.
func TestInferBodyLimitsBothModes(t *testing.T) {
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
	defer srv.Close()
	a.setReady(srv, m)
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      []cluster.Backend{&cluster.Local{Srv: newServer(), Name: "r0"}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	muxes := map[string]*http.ServeMux{"replica": newMux(a), "router": newRouterMux(ro, new(atomic.Bool))}

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
