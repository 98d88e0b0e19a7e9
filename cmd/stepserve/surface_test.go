package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPublicSurface pins the whole HTTP surface of both modes: /infer,
// /stats and /healthz answer and no other path does. In particular GET
// and POST /cache/entry, the unauthenticated route that once let any
// client install logits under any key, are 404 on both muxes: a route
// that writes serving state cannot come back onto the public listener
// without this test changing.
func TestPublicSurface(t *testing.T) {
	muxes := bothMuxes(t)
	routes := map[string]bool{"/infer": true, "/stats": true, "/healthz": true}
	entry := `{"key":"1f","subnet":3,"logits":[9,0,0,0]}`
	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/infer", `{"deadline_ms":5}`},
		{http.MethodGet, "/stats", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/cache/entry?key=1f", ""},
		{http.MethodPost, "/cache/entry", entry},
		{http.MethodGet, "/", ""},
		{http.MethodGet, "/cache", ""},
		{http.MethodPost, "/cache/", entry},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/debug/pprof/", ""},
		{http.MethodPost, "/infer/batch", `{}`},
	} {
		path, _, _ := strings.Cut(tc.path, "?")
		for mode, mux := range muxes {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if _, pattern := mux.Handler(req); pattern != "" && !routes[pattern] {
				t.Errorf("%s %s on the %s mux is routed to %q, which is not a public route", tc.method, tc.path, mode, pattern)
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if answers := rec.Code != http.StatusNotFound; answers != routes[path] {
				t.Errorf("%s %s on the %s mux: status %d, want %s", tc.method, tc.path, mode, rec.Code,
					map[bool]string{true: "an answer", false: "404"}[routes[path]])
			}
		}
	}
}
