package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// benchResult is one line of the perf baseline: enough to diff ns/op
// and allocation behaviour across PRs without the full testing output.
type benchResult struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	MFlops      float64 `json:"mflops,omitempty"`
}

type benchBaseline struct {
	GoVersion string                 `json:"go_version"`
	GOARCH    string                 `json:"goarch"`
	NumCPU    int                    `json:"num_cpu"`
	MaxProcs  int                    `json:"gomaxprocs,omitempty"` // runtime.GOMAXPROCS(0); absent in older files
	Backend   string                 `json:"backend"`              // tensor.Backend(): "avx2" or "scalar"
	Results   map[string]benchResult `json:"results"`
}

// newServeModel is the served model of the serve_* and wire-path
// entries and of the stage profile: the benchmark LeNet with a seeded
// random unit spread over its four rungs.
func newServeModel() *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
		Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
	})
	r := tensor.NewRNG(9)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(4))
		}
	}
	return m
}

// writeBenchBaseline runs the substrate benchmarks the repo's perf
// targets are stated against (the blocked matmul kernel and the
// zero-allocation forward/step paths) via testing.Benchmark and
// writes them as JSON, so ci.sh can record a BENCH_baseline.json that
// future PRs diff. Each benchmark runs three times and the fastest
// run is recorded: min ns/op is the noise-robust statistic on a
// shared box, and keeps the compare gate's ±15% threshold meaningful
// for the sub-100µs benchmarks whose single runs wobble more.
func writeBenchBaseline(path string) error {
	put := func(m map[string]benchResult, name string, flops int64, r testing.BenchmarkResult) {
		res := benchResult{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		if flops > 0 && r.NsPerOp() > 0 {
			res.MFlops = float64(flops) / float64(r.NsPerOp()) * 1e3
		}
		m[name] = res
		fmt.Printf("%-28s %10d ns/op %8d B/op %5d allocs/op\n",
			name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	// fastest runs every fn three times and returns each one's fastest
	// run. The runs alternate between the fns, so the entries of a pair
	// that a relation compares (compare.go) are timed over the same
	// stretch of a host that moves.
	fastest := func(fns ...func(b *testing.B)) []testing.BenchmarkResult {
		best := make([]testing.BenchmarkResult, len(fns))
		for rep := 0; rep < 3; rep++ {
			for k, fn := range fns {
				if r := testing.Benchmark(fn); rep == 0 || r.NsPerOp() < best[k].NsPerOp() {
					best[k] = r
				}
			}
		}
		return best
	}
	record := func(m map[string]benchResult, name string, flops int64, fn func(b *testing.B)) {
		put(m, name, flops, fastest(fn)[0])
	}

	newMats := func(n int) (a, b, c *tensor.Tensor) {
		r := tensor.NewRNG(1)
		a, b, c = tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		return
	}
	newNet := func() (*nn.Network, *tensor.Tensor) {
		r := tensor.NewRNG(2)
		m := models.LeNet3C1L(models.Options{
			Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
			Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
		})
		x := tensor.New(8, 3, 16, 16)
		x.FillNormal(r, 0, 1)
		return m.Net, x
	}

	// newInferBody is one POST /infer body of the served geometry: 768
	// standard-normal floats, ≈15 KB of JSON.
	newInferBody := func(b *testing.B) []byte {
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		body, err := json.Marshal(map[string]any{"input": in.Data(), "deadline_ms": 1000})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	// newCachedReplica stands up the production /infer handler over
	// loopback in front of a cache-armed server, as a replica mounts it.
	newCachedReplica := func(b *testing.B) *httptest.Server {
		m := newServeModel()
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 4, Workers: 1, CacheEntries: 16,
			DefaultDeadline: time.Second, CalibrationReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Close)
		ts := httptest.NewServer(&cluster.InferHandler{
			Submit:   srv.Submit,
			InputLen: func() int { return m.InC * m.InH * m.InW },
		})
		b.Cleanup(ts.Close)
		return ts
	}
	// postEach times b.N keep-alive POSTs to url, the i-th of body(i);
	// every answer after the warm-up one must pass ok.
	postEach := func(b *testing.B, url string, body func(i int) []byte, ok func(answer []byte) bool) {
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		var answer bytes.Buffer
		post := func(i int) {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body(i)))
			if err != nil {
				b.Fatal(err)
			}
			answer.Reset()
			_, err = answer.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d, read error %v: %s", resp.StatusCode, err, answer.Bytes())
			}
		}
		post(-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(i)
			if !ok(answer.Bytes()) {
				b.Fatalf("unexpected answer: %s", answer.Bytes())
			}
		}
	}
	// postRepeats is postEach of one infer body: after the first, every
	// answer must be a full cache hit where there is a cache behind url.
	postRepeats := func(b *testing.B, url string, wantHit bool) {
		body := newInferBody(b)
		postEach(b, url, func(int) []byte { return body }, func(answer []byte) bool {
			return bytes.Contains(answer, []byte(`"cache_hit":true`)) == wantHit
		})
	}
	// postCold is postEach of a new input every time: the infer body with
	// the iteration's number as its first element, each answer a full
	// four-rung walk and no hit.
	postCold := func(b *testing.B, url string) {
		body := newInferBody(b)
		open := bytes.IndexByte(body, '[') + 1
		rest := body[open+bytes.IndexByte(body[open:], ','):]
		fresh := make([]byte, 0, len(body)+20)
		postEach(b, url, func(i int) []byte {
			fresh = strconv.AppendInt(append(fresh[:0], body[:open]...), int64(i), 10)
			return append(fresh, rest...)
		}, func(answer []byte) bool {
			return bytes.Contains(answer, []byte(`"subnet":4`)) && !bytes.Contains(answer, []byte(`"cache_hit"`))
		})
	}
	// newRouterFront stands a router in front of a newCachedReplica and
	// returns its /infer URL: a Remote to the replica behind Router.Submit,
	// under the production handler mounted as stepserve's router mode
	// mounts it.
	newRouterFront := func(b *testing.B) string {
		ro, err := cluster.NewRouter(cluster.RouterConfig{
			Backends:        []cluster.Backend{cluster.NewRemote(newCachedReplica(b).URL)},
			DefaultDeadline: time.Second,
			ProbeInterval:   -1, // the stand-in replica mounts /infer only
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(ro.Close)
		router := httptest.NewServer(&cluster.InferHandler{NotReady: func() string { return "" }, Submit: ro.Submit})
		b.Cleanup(router.Close)
		return router.URL + "/infer"
	}

	results := make(map[string]benchResult)

	record(results, "matmul64", 2*64*64*64, func(b *testing.B) {
		x, y, _ := newMats(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMul(x, y)
		}
	})
	record(results, "matmul64_into", 2*64*64*64, func(b *testing.B) {
		x, y, c := newMats(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(c, x, y, false)
		}
	})
	record(results, "matmul128_into", 2*128*128*128, func(b *testing.B) {
		x, y, c := newMats(128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(c, x, y, false)
		}
	})
	record(results, "forward_lenet3c1l", 0, func(b *testing.B) {
		net, x := newNet()
		ctx := nn.Eval(4)
		ctx.Scratch = tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Scratch.Put(net.Forward(x, ctx))
		}
	})
	// Batch-1 latency: one from-scratch forward of the widest subnet
	// through the per-layer reference path (nn.Network.Forward). It is
	// the yardstick the ladder walk below is held to: -compare fails if
	// climbing all four rungs costs over 10% more than this.
	record(results, "forward_lenet3c1l_b1", 0, func(b *testing.B) {
		net, _ := newNet()
		r := tensor.NewRNG(4)
		x := tensor.New(1, 3, 16, 16)
		x.FillNormal(r, 0, 1)
		ctx := nn.Eval(4)
		ctx.Scratch = tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Scratch.Put(net.Forward(x, ctx))
		}
	})
	record(results, "anytime_walk_lenet3c1l", 0, func(b *testing.B) {
		net, x := newNet()
		e := infer.NewEngine(net)
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reset(x)
			for s := 1; s <= 4; s++ {
				e.MustStep(s)
			}
		}
	})
	// The batch-1 ladder walk — the engine-level twin of
	// forward_lenet3c1l_b1: a lone request climbing all four rungs of
	// the compiled step plan, serially whatever the core count. Reuse
	// must pay in time, not only in MACs: see the relational check in
	// compare.go. It must stay at 0 allocs/op.
	record(results, "anytime_walk_lenet3c1l_b1", 0, func(b *testing.B) {
		net, _ := newNet()
		r := tensor.NewRNG(4)
		x := tensor.New(1, 3, 16, 16)
		x.FillNormal(r, 0, 1)
		e := infer.NewEngine(net)
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reset(x)
			for s := 1; s <= 4; s++ {
				e.MustStep(s)
			}
		}
	})
	// Single-request serving latency through the full internal/serve
	// path — admission, scheduling, the 4-step ladder walk and the
	// answer channel — with a deadline generous enough to always reach
	// the widest subnet. The delta over anytime_walk_lenet3c1l (at
	// batch 8 there vs batch 1 here) is the serving layer's overhead
	// budget.
	record(results, "serve_b1_deadline", 0, func(b *testing.B) {
		m := newServeModel()
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 4, Workers: 1,
			DefaultDeadline: time.Second, CalibrationReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.Submit(serve.Request{Input: in.Data()})
			if err != nil {
				b.Fatal(err)
			}
			if res.Subnet != 4 {
				b.Fatalf("generous deadline answered from subnet %d", res.Subnet)
			}
		}
	})

	// Cold serving latency with the cache armed: every iteration is a
	// new input, so each answer is a miss — hash, lookup, the 4-step
	// walk, and the post-walk publish (a top-rung walk stores its logits
	// alone; exporting a ladder state here was ≈90 KB per answer). The
	// delta over serve_b1_deadline is what the cache costs a miss.
	record(results, "serve_b1_cold_cached", 0, func(b *testing.B) {
		m := newServeModel()
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 4, Workers: 1, CacheEntries: 16,
			DefaultDeadline: time.Second, CalibrationReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in.Data()[0] = float64(i) // a fresh cache key
			res, err := srv.Submit(serve.Request{Input: in.Data()})
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHit || res.Subnet != 4 {
				b.Fatalf("cold submit: hit=%v subnet=%d, want a full cold walk", res.CacheHit, res.Subnet)
			}
		}
	})

	// Cached-resume serving latency: the same request repeated through
	// a cache-armed server. After the first walk populates the cache,
	// every iteration is a full hit — admission, hash, lookup and the
	// answer channel with zero engine work. The delta under
	// serve_b1_deadline is what the semantic cache saves per repeated
	// key; a regression here means the hit path grew real work.
	record(results, "serve_b1_cached_resume", 0, func(b *testing.B) {
		m := newServeModel()
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 4, Workers: 1, CacheEntries: 16,
			DefaultDeadline: time.Second, CalibrationReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		if _, err := srv.Submit(serve.Request{Input: in.Data()}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.Submit(serve.Request{Input: in.Data()})
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit {
				b.Fatalf("repeat submit missed the cache (subnet %d)", res.Subnet)
			}
		}
	})

	// The request codec alone on a body of the served geometry: the
	// share of every wire-path answer that is reading 768 floats out of
	// JSON. Decoding into a slice with room must not allocate.
	record(results, "wire_decode_768", 0, func(b *testing.B) {
		body := newInferBody(b)
		req := cluster.InferRequest{Input: make([]float64, 0, 3*16*16)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := req.UnmarshalJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The handler's form of the codec on a body whose array text it has
	// parsed before: find the array's end, digest it, probe the memo,
	// check the bytes around it — and read no number. Held under 0.15 ×
	// wire_decode_768 by -compare.
	record(results, "wire_known_768", 0, func(b *testing.B) {
		body := newInferBody(b)
		h := new(cluster.InferHandler)
		scratch := make([]float64, 0, 3*16*16)
		if _, err := h.DecodeRequest(body, scratch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if req, err := h.DecodeRequest(body, scratch); err != nil || req.Input != nil || !req.Keyed {
				b.Fatalf("a body decoded once was read again: input %v keyed %v err %v", req.Input != nil, req.Keyed, err)
			}
		}
	})

	// The in-run reference for the codec: the same 768 tokens through
	// strconv.ParseFloat and nothing else — no grammar check, no object
	// around them. -compare holds wire_decode_768 under 0.6 × this and
	// cache_keyof_768 under 0.05 ×, ratios that stay put when the host
	// does not.
	record(results, "wire_parsefloat_768", 0, func(b *testing.B) {
		body := newInferBody(b)
		tokens := strings.Split(string(body[bytes.IndexByte(body, '[')+1:bytes.IndexByte(body, ']')]), ",")
		if len(tokens) != 3*16*16 {
			b.Fatalf("%d input tokens in the body, want %d", len(tokens), 3*16*16)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tok := range tokens {
				if _, err := strconv.ParseFloat(tok, 64); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// The cache key of one input: paid by every replica Submit and by
	// every affinity-routed request on the router. 0 allocs/op.
	record(results, "cache_keyof_768", 0, func(b *testing.B) {
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		var sink cache.Key
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink ^= cache.KeyOf(in.Data())
		}
		if sink == 1 { // keeps the loop's result alive
			b.Log(sink)
		}
	})

	// http_b1_empty is the floor under every envelope number: the same
	// 15 KB body POSTed over the same keep-alive loopback to a handler
	// that reads and discards it. What http_b1_cached costs above this is
	// ours; what is below it belongs to net/http and the kernel.
	// http_b1_cached is what a client pays for serve_b1_cached_resume's
	// answer over loopback HTTP: the production handler (bounded read,
	// codec, pooled buffers, answer codec) around a cache hit.
	// route_b1_cached is the same answer through a router: the delta over
	// http_b1_cached is the hop — the router's handler, and Remote's one
	// write and one read with the input text forwarded as it arrived.
	// -compare holds http_b1_cached to http_b1_empty plus 0.6 ×
	// wire_decode_768, and route_b1_cached to 2.5 × http_b1_cached in time
	// and to http_b1_cached + 8 KiB in bytes; the three runs alternate.
	trio := fastest(
		func(b *testing.B) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body) //nolint:errcheck — a failed read shows as a failed POST
			}))
			defer ts.Close()
			postRepeats(b, ts.URL, false)
		},
		func(b *testing.B) { postRepeats(b, newCachedReplica(b).URL+"/infer", true) },
		func(b *testing.B) { postRepeats(b, newRouterFront(b), true) },
	)
	put(results, "http_b1_empty", 0, trio[0])
	put(results, "http_b1_cached", 0, trio[1])
	put(results, "route_b1_cached", 0, trio[2])

	// The misses beside them: the same handler and server, and the same
	// router, every body a new input — read, digested (the memo's pass,
	// for nothing), parsed, keyed once, walked up four rungs and
	// published; through the router, read and parsed on both sides.
	record(results, "http_b1_cold", 0, func(b *testing.B) { postCold(b, newCachedReplica(b).URL+"/infer") })
	record(results, "route_b1_cold", 0, func(b *testing.B) { postCold(b, newRouterFront(b)) })

	out := benchBaseline{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Backend:   tensor.Backend(),
		Results:   results,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
