// Command stepserve exposes the anytime-inference serving layer
// (internal/serve) over HTTP, scales it out as a fault-tolerant
// router over multiple replicas (internal/cluster), and doubles as a
// load generator for measuring how the service degrades under
// pressure.
//
// Server mode builds a stepping model (by default an untrained one
// with a seeded random unit→subnet spread — the serving data path is
// identical; pass -train to run the full construction pipeline
// first), calibrates per-subnet step latencies, and listens:
//
//	stepserve -addr :8080 -model lenet3c1l -subnets 4
//	curl -s localhost:8080/infer -d '{"deadline_ms": 5}'
//	curl -s localhost:8080/stats
//
// POST /infer accepts {"input": [...], "deadline_ms": 5, "priority":
// 1} (priority also via the X-Priority header; higher classes shed
// last and keep wider answers under overload — see -priorities). A
// missing input is replaced by a seeded random image (handy for smoke
// tests). Nothing but whitespace may follow the object (400), and a
// body over the model-scaled cap is a 413; both modes mount the one
// handler in internal/cluster, so the contract is the router's too.
// The answer reports which subnet produced it, the MACs
// spent, and whether the deadline was met. GET /stats returns the
// serve.Snapshot counters including the per-priority breakdown. GET
// /healthz reports real readiness: 503 while the model is still
// building and calibrating at startup, 200 while serving, 503 again
// the moment a SIGTERM starts the drain — so a router (or any load
// balancer) stops sending work before in-flight requests are cut
// off. Those three routes are the whole HTTP surface of both modes;
// nothing on the listener writes into a cache. The listener itself
// is hardened: -hdr-timeout bounds how long a connection may dribble
// its headers (slow-loris), with read and idle timeouts alongside.
// The -refresh interval keeps the deadline calibration tracking live
// step timings (thermal or contention drift) instead of trusting
// startup numbers forever.
//
// Router mode (-route) serves the same /infer contract by spreading
// requests over N replica URLs, least predicted backlog first, with
// active health probing, per-replica circuit breakers, and
// deadline-aware retries (see internal/cluster):
//
//	stepserve -route http://host1:8081,http://host2:8082 -addr :8080
//
// With -affinity the router instead rendezvous-hashes each request's
// input cache key over the admitted replicas, so repeats of an input
// land on the replica whose semantic cache already holds the walk;
// -affinity-spill bounds the imbalance a hot key may cause (a pick
// whose backlog exceeds that factor × the cluster mean falls to the
// key's next replica in hash order). GET /stats in router mode
// returns the cluster.RouterStats breakdown, including per-replica
// affinity hit and spill counters; GET /healthz is 200 while at least
// one replica is admitted.
//
// Load-generator mode drives either an in-process service or — with
// -targets — remote replicas/routers over HTTP at a configurable
// request rate and class mix (deadline:weight, with an optional
// :hi/:lo/:N priority field), then prints per-class latency
// percentiles, the per-target outcome breakdown, the per-subnet
// answer distribution and each server's own protection summary:
//
//	stepserve -loadgen -rps 400 -duration 5s -deadlines 4ms:0.9,12ms:0.1:hi
//	stepserve -loadgen -targets http://host1:8081,http://host2:8082 -rps 400
//
// The -slow flag adds slow-loris connections to the first target,
// demonstrating the -hdr-timeout defense end to end. The -scenario
// flag shapes the offered load deterministically (diurnal sinusoid,
// calm-with-bursts, or a rate staircase) so SLO adherence is
// demonstrable against non-constant traffic, and with -slo set the
// report adds per-class SLO-attainment columns and verdicts.
//
// The -slo flag (server and in-process loadgen modes) arms the
// adaptive overload governor: "1:2ms:0.99" gives priority class 1 a
// 2ms p99 target and a 99% deadline-hit floor. Every -control
// interval the governor compares the live per-class percentiles
// against these targets and walks a brownout ladder — narrow the
// lowest class's answers first, then fast-fail it, then shed it —
// recovering additively once SLOs are met again (see
// internal/governor). /stats exposes the violation and transition
// counters plus the current policy.
//
// The -cache flag arms the semantic result cache: repeated inputs are
// answered straight from a previous walk's logits, or — when the new
// request's deadline affords a wider answer — the engine resumes from
// the cached ladder rung instead of walking from scratch, bitwise
// identical to a cold walk. -exit-margin (a scalar, or a per-class
// comma-separated vector; -exit-calibrate derives argmax-safe
// per-class thresholds from seeded calibration walks and overrides
// both) arms the confidence early exit: the walk stops as soon as the
// top-2 logit margin clears the threshold. The loadgen's -repeat flag
// sends that fraction of requests from a zipf-skewed hot key pool, so
// cache-on vs cache-off runs are directly comparable — in-process, or
// against remote replicas/routers with -targets, where the report
// adds each replica's cache concentration (the end-to-end measure of
// -affinity routing):
//
//	stepserve -loadgen -cache 256 -repeat 0.6 -rps 400 -duration 5s
//	stepserve -loadgen -targets http://router:8080 -repeat 0.6 -rps 400
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/core"
	"steppingnet/internal/data"
	"steppingnet/internal/governor"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stepserve: ")

	var sf servingFlags
	flag.StringVar(&sf.model, "model", "lenet3c1l", "network: lenet3c1l, lenet5 or vgg16")
	flag.IntVar(&sf.subnets, "subnets", 4, "ladder depth N")
	flag.Float64Var(&sf.expansion, "expansion", 1.6, "width expansion ratio")
	flag.IntVar(&sf.classes, "classes", 10, "number of classes")
	flag.IntVar(&sf.img, "img", 16, "input image height/width")
	flag.Uint64Var(&sf.seed, "seed", 1, "master seed")
	flag.BoolVar(&sf.train, "train", false, "run the full construction+distillation pipeline instead of a random subnet spread (slow)")

	addr := flag.String("addr", ":8080", "HTTP listen address (server and router modes)")
	flag.IntVar(&sf.workers, "workers", 0, "engine-pool size (0 = GOMAXPROCS)")
	flag.IntVar(&sf.queue, "queue", 64, "admission queue bound")
	flag.IntVar(&sf.batch, "batch", 4, "micro-batch size (1 disables batching)")
	flag.DurationVar(&sf.deadline, "deadline", 20*time.Millisecond, "default per-request deadline")
	flag.IntVar(&sf.priorities, "priorities", 2, "number of request priority classes (1 disables priorities)")
	flag.DurationVar(&sf.refresh, "refresh", 2*time.Second, "calibration refresh interval (0 trusts startup calibration forever)")
	sloSpec := flag.String("slo", "", "per-class SLOs arming the adaptive overload governor, like 1:2ms:0.99 — class:p99target[:min-hit-rate[:min-subnet]] (empty disables the governor)")
	flag.DurationVar(&sf.control, "control", 0, "overload governor tick interval (0 = 100ms when -slo is set)")
	flag.IntVar(&sf.cacheEntries, "cache", 0, "semantic result cache capacity in entries (0 disables; repeated inputs are answered from — or resumed off — cached ladder state)")
	flag.Int64Var(&sf.cacheBytes, "cache-bytes", 0, "semantic cache memory bound in bytes (0 = 64MiB default when -cache is set)")
	exitMarginSpec := flag.String("exit-margin", "", "confidence early-exit top-2 logit margin: a single threshold, or a comma-separated per-class vector indexed by predicted class (empty disables the exit)")
	flag.IntVar(&sf.exitCalibrate, "exit-calibrate", 0, "derive argmax-safe per-class early-exit margins from this many seeded calibration inputs (overrides -exit-margin)")
	hdrTimeout := flag.Duration("hdr-timeout", 5*time.Second, "how long a connection may take to send its request headers before it is closed (slow-loris defense)")

	route := flag.String("route", "", "comma-separated replica base URLs: run as a fault-tolerant router over them instead of serving a model")
	affinity := flag.Bool("affinity", false, "router: rendezvous-hash requests onto replicas by input cache key, so repeats hit the replica whose semantic cache holds the walk")
	affinitySpill := flag.Float64("affinity-spill", 2, "router: spill an affinity pick to the next replica in hash order once its backlog exceeds this factor × the cluster mean (≥1)")

	loadgen := flag.Bool("loadgen", false, "run the load generator instead of the HTTP server")
	targets := flag.String("targets", "", "loadgen: comma-separated replica/router base URLs to drive over HTTP instead of an in-process server")
	rps := flag.Float64("rps", 200, "loadgen: offered requests per second")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: run length")
	deadlineMix := flag.String("deadlines", "", "loadgen: class mix like 4ms:0.5,12ms:0.5:hi — deadline:weight with an optional :hi marking the high-priority class (default: the -deadline flag at weight 1)")
	scenario := flag.String("scenario", "constant", "loadgen: deterministic load shape — constant, diurnal (sinusoid 0.25×–1.75×), burst (0.5× calm with 3× bursts) or step (0.5×/1×/2×/4× staircase)")
	repeat := flag.Float64("repeat", 0, "loadgen: fraction of requests re-sending a zipf-skewed hot-pool input (0..1; exercises the semantic cache, and with -targets the router's cache-affinity placement)")
	slowConns := flag.Int("slow", 0, "loadgen: also open this many slow-loris connections against the first target (demonstrates -hdr-timeout)")
	flag.Parse()

	if *route != "" && *loadgen {
		log.Fatal("-route and -loadgen are mutually exclusive")
	}

	if *route != "" {
		serveRouter(splitTargets(*route), *addr, sf.deadline, *affinity, *affinitySpill, *hdrTimeout)
		return
	}

	var err error
	if sf.slos, err = parseSLOs(*sloSpec); err != nil {
		log.Fatal(err)
	}
	if sf.exitMargin, sf.exitMargins, err = parseExitMargins(*exitMarginSpec); err != nil {
		log.Fatal(err)
	}

	if *loadgen {
		mix, err := parseDeadlineMix(*deadlineMix, sf.deadline)
		if err != nil {
			log.Fatal(err)
		}
		shape, err := loadShape(*scenario)
		if err != nil {
			log.Fatal(err)
		}
		if *repeat < 0 || *repeat > 1 {
			log.Fatal("-repeat must be in 0..1")
		}
		if *targets != "" {
			// Remote repeats reuse the replicas' input geometry (the
			// server builds with InC=3), so repeated payloads are
			// bit-identical across requests and cache-key stable.
			runRemoteLoadgen(splitTargets(*targets), *rps, *duration, mix, sf.seed, *slowConns, *scenario, shape, sf.slos,
				*repeat, 3*sf.img*sf.img)
			return
		}
		srv, m, err := buildServing(sf)
		if err != nil {
			log.Fatal(err)
		}
		runLoadgen(srv, m, *rps, *duration, mix, sf.seed, *scenario, shape, sf.slos, *repeat)
		srv.Close()
		return
	}

	// Server mode: listen first, build and calibrate in the
	// background. /healthz answers 503 until the model is ready, so a
	// router's probes (and orchestrator readiness checks) see an
	// honest starting state instead of a connection-refused window.
	serveHTTP(*addr, sf.seed, *hdrTimeout, func() (*serve.Server, *models.Model, error) { return buildServing(sf) })
}

// servingFlags are the parsed flags that shape a serving process: the
// model it builds and the serve.Config it runs under. Server mode and
// the in-process load generator both build from them, through
// buildServing.
type servingFlags struct {
	model                 string
	subnets, classes, img int
	expansion             float64
	seed                  uint64
	train                 bool
	workers, queue, batch int
	deadline              time.Duration
	priorities            int
	refresh               time.Duration
	slos                  []governor.SLO
	control               time.Duration
	cacheEntries          int
	cacheBytes            int64
	exitMargin            float64
	exitMargins           []float64
	exitCalibrate         int
}

// buildServing builds the model and the serving layer the flags
// describe, then logs the calibrated ladder and what the cache and the
// early exit will short-circuit. Calibrated exit margins
// (-exit-calibrate) replace -exit-margin.
func buildServing(f servingFlags) (*serve.Server, *models.Model, error) {
	m, err := buildServeModel(f.model, f.classes, f.img, f.expansion, f.subnets, f.seed, f.train)
	if err != nil {
		return nil, nil, err
	}
	cfg := serve.Config{
		Model: m, Subnets: f.subnets,
		Workers: f.workers, QueueDepth: f.queue, MaxBatch: f.batch,
		PriorityClasses: f.priorities,
		DefaultDeadline: f.deadline,
		RefreshInterval: f.refresh,
		SLOs:            f.slos,
		ControlInterval: f.control,
		CacheEntries:    f.cacheEntries, CacheBytes: f.cacheBytes,
		ExitMargin: f.exitMargin, ExitMargins: f.exitMargins,
	}
	margins, err := calibratedExitMargins(m, f.subnets, f.exitCalibrate, f.seed)
	if err != nil {
		return nil, nil, err
	}
	if margins != nil {
		cfg.ExitMargin, cfg.ExitMargins = 0, margins
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	logCalibration(srv, m, f.subnets)
	logCacheExit(cfg)
	return srv, m, nil
}

// parseExitMargins resolves the -exit-margin spec: empty disables the
// exit, a single number is the scalar top-2 margin threshold, and a
// comma-separated vector supplies per-predicted-class thresholds. The
// vector's length is validated against the model's class count by
// serve.New — a mismatched slice is a construction error, never an
// out-of-range index on the serving path.
func parseExitMargins(spec string) (scalar float64, margins []float64, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, nil, nil
	}
	parts := strings.Split(spec, ",")
	vals := make([]float64, len(parts))
	for i, p := range parts {
		vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return 0, nil, fmt.Errorf("bad -exit-margin entry %q (want a number or comma-separated numbers)", p)
		}
	}
	if len(vals) == 1 {
		return vals[0], nil, nil
	}
	return 0, vals, nil
}

// calibratedExitMargins resolves -exit-calibrate: nCal seeded
// standard-normal inputs (the synthetic datasets' distribution) are
// walked up the full ladder to derive argmax-safe per-class early-exit
// thresholds. nCal ≤ 0 returns nil — the scalar -exit-margin applies.
func calibratedExitMargins(m *models.Model, subnets, nCal int, seed uint64) ([]float64, error) {
	if nCal <= 0 {
		return nil, nil
	}
	imgLen := m.InC * m.InH * m.InW
	rng := tensor.NewRNG(seed ^ 0xEC17)
	inputs := make([][]float64, nCal)
	for i := range inputs {
		inputs[i] = randomInput(rng, imgLen)
	}
	return serve.CalibrateExitMargins(m, subnets, 1, inputs, 0.1, 0)
}

// logCacheExit prints the cache/early-exit arming so an operator can
// see at startup what the serving path will short-circuit.
func logCacheExit(cfg serve.Config) {
	if cfg.CacheEntries > 0 {
		log.Printf("semantic cache: %d entries", cfg.CacheEntries)
	}
	switch {
	case len(cfg.ExitMargins) > 0:
		log.Printf("early exit: calibrated per-class margins %v", cfg.ExitMargins)
	case cfg.ExitMargin > 0:
		log.Printf("early exit: margin threshold %g", cfg.ExitMargin)
	}
}

// logCalibration prints the calibrated ladder the scheduler plans
// with.
func logCalibration(srv *serve.Server, m *models.Model, subnets int) {
	lm := srv.Latency()
	log.Printf("model %s, %d subnets, backend %s", m.Name, subnets, tensor.Backend())
	for s := 1; s <= lm.Subnets(); s++ {
		log.Printf("  step %d: %8.3f ms  (+%d MACs, ladder so far %.3f ms)",
			s, ms(lm.StepTime[s-1]), lm.StepMACs[s-1], ms(lm.WalkTime(s)))
	}
	log.Printf("calibrated rate: %.1f MMAC/s", lm.MACRate()/1e6)
}

// parseSLOs parses the -slo spec — comma-separated entries like
// "1:2ms:0.99", each class:p99target[:min-hit-rate[:min-subnet]] —
// into the dense per-class slice serve.Config and the loadgen report
// expect. Classes the spec skips get a zero SLO, which exempts them
// from violation checks (they can still be browned out to protect
// listed classes above them). An empty spec returns nil: governor off.
func parseSLOs(spec string) ([]governor.SLO, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var slos []governor.SLO
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("bad SLO %q (want class:p99target[:min-hit-rate[:min-subnet]])", part)
		}
		class, err := strconv.Atoi(fields[0])
		if err != nil || class < 0 {
			return nil, fmt.Errorf("bad class in SLO %q", part)
		}
		target, err := time.ParseDuration(fields[1])
		if err != nil || target < 0 {
			return nil, fmt.Errorf("bad p99 target in SLO %q", part)
		}
		s := governor.SLO{P99Target: target}
		if len(fields) >= 3 {
			s.MinHitRate, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || s.MinHitRate < 0 || s.MinHitRate > 1 {
				return nil, fmt.Errorf("bad min hit-rate in SLO %q (want 0..1)", part)
			}
		}
		if len(fields) == 4 {
			s.MinSubnet, err = strconv.Atoi(fields[3])
			if err != nil || s.MinSubnet < 0 {
				return nil, fmt.Errorf("bad min subnet in SLO %q", part)
			}
		}
		for class >= len(slos) {
			slos = append(slos, governor.SLO{})
		}
		slos[class] = s
	}
	return slos, nil
}

// splitTargets parses a comma-separated URL list, dropping empties.
func splitTargets(spec string) []string {
	var out []string
	for _, t := range strings.Split(spec, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		log.Fatal("empty target list")
	}
	return out
}

// buildServeModel constructs the model to serve. Without -train the
// units are spread over the ladder with a seeded RNG — MAC ladders
// and the serving data path are exactly those of a constructed model,
// only the weights are untrained (ideal for serving benchmarks and
// smoke tests). With -train the real pipeline runs first.
func buildServeModel(name string, classes, imgHW int, expansion float64, n int, seed uint64, train bool) (*models.Model, error) {
	build, err := models.ByName(name)
	if err != nil {
		return nil, err
	}
	if train {
		budgets := make([]float64, n)
		for i := range budgets {
			budgets[i] = 0.1 + 0.8*float64(i)/float64(max(n-1, 1))
		}
		res, err := core.Run(core.PipelineOptions{
			Build: build,
			Data: data.Config{
				Name: "serve", Classes: classes, C: 3, H: imgHW, W: imgHW,
				Train: 1024, Test: 256, Seed: seed + 10, LabelNoise: 0.04,
			},
			Expansion: expansion,
			Config: core.Config{
				Subnets: n, Budgets: budgets,
				Iterations: 20, TeacherEpochs: 4, DistillEpochs: 4, Seed: seed,
			},
		})
		if err != nil {
			return nil, err
		}
		return res.StudentNet, nil
	}

	m := build(models.Options{
		Classes: classes, InC: 3, InH: imgHW, InW: imgHW,
		Expansion: expansion, Subnets: n, Rule: nn.RuleIncremental, Seed: seed,
	})
	r := tensor.NewRNG(seed ^ 0x5EED5)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(n))
		}
	}
	return m, nil
}

// priorityHeader is cluster.PriorityHeader under the name this
// package's fuzz harness has always used.
const priorityHeader = cluster.PriorityHeader

// Readiness states of a serving process. /healthz answers 200 only
// in appReady — a starting process (model still building,
// calibration still running) and a draining one (SIGTERM received,
// in-flight work finishing) both refuse new work with a 503, which
// is what pulls them out of a router's rotation.
const (
	appStarting int32 = iota
	appReady
	appDraining
)

// app is the serving process's readiness state machine plus the
// handles the HTTP handlers need. The server and model land via
// setReady once the background build finishes; until then every
// endpoint answers 503.
type app struct {
	state atomic.Int32
	srv   atomic.Pointer[serve.Server]
	m     atomic.Pointer[models.Model]

	// net/http runs each handler on its own goroutine and tensor.RNG
	// is not concurrency-safe; serialize the smoke-test input draws.
	rngMu sync.Mutex
	rng   *tensor.RNG
}

// randomInput draws the seeded image a request without an input gets.
func (a *app) randomInput(n int) []float64 {
	a.rngMu.Lock()
	defer a.rngMu.Unlock()
	return randomInput(a.rng, n)
}

func newApp(seed uint64) *app {
	return &app{rng: tensor.NewRNG(seed ^ 0xD06F00D)}
}

// setReady publishes the built serving stack and flips starting →
// ready. If the process is already draining (a SIGTERM raced the
// build), the state stays draining — the server is still stored so
// teardown closes it.
func (a *app) setReady(srv *serve.Server, m *models.Model) {
	a.m.Store(m)
	a.srv.Store(srv)
	a.state.CompareAndSwap(appStarting, appReady)
}

// setDraining flips the process to its terminal state; /healthz goes
// 503 immediately, before the HTTP server stops accepting, so
// routers stop picking this replica while in-flight work finishes.
func (a *app) setDraining() { a.state.Store(appDraining) }

// notReady returns the 503 message for the current state, or "" when
// the app is serving.
func (a *app) notReady() string {
	switch a.state.Load() {
	case appStarting:
		return "starting: model build and calibration in progress"
	case appDraining:
		return "draining"
	}
	return ""
}

// newMux builds the HTTP surface over a serving app: POST /infer,
// GET /stats, GET /healthz, every endpoint gated on readiness.
// Factored out of serveHTTP so the fuzz harness and the readiness
// tests can drive the exact production handler chain through
// httptest without opening a socket.
func newMux(a *app) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if msg := a.notReady(); msg != "" {
			http.Error(w, msg, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		srv := a.srv.Load()
		if srv == nil {
			http.Error(w, a.notReady(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(srv.Stats()); err != nil {
			log.Printf("stats encode: %v", err)
		}
	})
	mux.Handle("/infer", &cluster.InferHandler{
		NotReady: a.notReady,
		Submit:   func(req serve.Request) (serve.Result, error) { return a.srv.Load().Submit(req) },
		InputLen: func() int { m := a.m.Load(); return m.InC * m.InH * m.InW },
		Fallback: a.randomInput, // smoke-test convenience
	})
	return mux
}

// newHTTPServer applies the hardening every listening mode shares:
// ReadHeaderTimeout closes slow-loris connections that dribble their
// headers, ReadTimeout bounds a whole request read, IdleTimeout reaps
// parked keep-alive connections. WriteTimeout stays 0 deliberately —
// an /infer response legitimately waits out queue time plus the
// anytime walk, and the serving layer already bounds that by the
// request deadline.
func newHTTPServer(addr string, h http.Handler, hdrTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: hdrTimeout,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveHTTP runs the JSON endpoint until SIGINT/SIGTERM: the listener
// comes up immediately answering 503s, the serving stack builds in
// the background (build runs model construction plus calibration) and
// flips /healthz to 200 when done, and a signal drains in order —
// readiness down first, then the HTTP server, then the serving layer,
// so in-flight handlers never see ErrClosed.
func serveHTTP(addr string, seed uint64, hdrTimeout time.Duration, build func() (*serve.Server, *models.Model, error)) {
	a := newApp(seed)
	hs := newHTTPServer(addr, newMux(a), hdrTimeout)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	initErr := make(chan error, 1)
	go func() {
		srv, m, err := build()
		if err != nil {
			initErr <- err
			stop() // tear the listener down; a replica that cannot build must not sit at 503 forever
			return
		}
		a.setReady(srv, m)
		log.Printf("ready")
		initErr <- nil
	}()

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		a.setDraining()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()
	log.Printf("listening on %s", addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returns the moment Shutdown starts; wait for
	// Shutdown itself (it blocks until active handlers finish), then
	// for the build (it may still be running), before closing the
	// serving layer.
	<-shutdownDone
	err := <-initErr
	if srv := a.srv.Load(); srv != nil {
		srv.Close()
		log.Printf("drained; final stats: %+v", srv.Stats())
	}
	if err != nil {
		log.Fatal(err)
	}
}

// newRouterMux builds the router's HTTP surface: the same POST /infer
// handler a replica mounts, over Router.Submit, plus the router's own
// /stats and /healthz. Factored out of serveRouter for the same reason
// as newMux: tests drive the production handler chain through
// httptest.
func newRouterMux(ro *cluster.Router, draining *atomic.Bool) *http.ServeMux {
	notReady := func() string {
		if draining.Load() {
			return "draining"
		}
		return ""
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if msg := notReady(); msg != "" {
			http.Error(w, msg, http.StatusServiceUnavailable)
			return
		}
		st := ro.Stats()
		if st.Available > 0 {
			fmt.Fprintf(w, "ok (%d/%d replicas)\n", st.Available, len(st.Replicas))
			return
		}
		http.Error(w, "no replica available", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(ro.Stats()); err != nil {
			log.Printf("stats encode: %v", err)
		}
	})
	// No input length, no fallback: the router has no model, and an
	// absent input passes through for the chosen replica to synthesize
	// its seeded smoke-test image.
	mux.Handle("/infer", &cluster.InferHandler{NotReady: notReady, Submit: ro.Submit})
	return mux
}

// serveRouter runs the fault-tolerant router mode: the same /infer
// contract, served by spreading requests over the replica URLs with
// health probing, circuit breaking and deadline-aware retries (see
// internal/cluster.Router).
func serveRouter(targets []string, addr string, defaultDeadline time.Duration, affinity bool, affinitySpill float64, hdrTimeout time.Duration) {
	backends := make([]cluster.Backend, 0, len(targets))
	for _, tgt := range targets {
		backends = append(backends, cluster.NewRemote(tgt))
	}
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:            backends,
		DefaultDeadline:     defaultDeadline,
		Affinity:            affinity,
		AffinitySpillFactor: affinitySpill,
	})
	if err != nil {
		log.Fatal(err)
	}

	var draining atomic.Bool
	mux := newRouterMux(ro, &draining)

	hs := newHTTPServer(addr, mux, hdrTimeout)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		draining.Store(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()
	log.Printf("routing %d replicas on %s", len(targets), addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-shutdownDone
	ro.Close()
	st := ro.Stats()
	log.Printf("drained; routed %d (%d inputs known, served %d, failed %d, retries %d, affinity %d routed/%d spilled)",
		st.Submitted, st.InputsKnown, st.Served, st.Failed, st.Retries, st.AffinityRouted, st.AffinitySpilled)
	for _, rs := range st.Replicas {
		log.Printf("  %s: up=%v breaker=%s success=%d rejected=%d transport=%d bad=%d retried=%d affinity=%d spills=%d",
			rs.Target, rs.Up, rs.Breaker, rs.Success, rs.Rejected, rs.TransportErrors, rs.BadInputs, rs.Retried, rs.AffinityHits, rs.AffinitySpills)
	}
}

// randomInput draws a standard-normal image, the same distribution
// the synthetic datasets use.
func randomInput(rng *tensor.RNG, n int) []float64 {
	x := tensor.New(n)
	x.FillNormal(rng, 0, 1)
	return x.Data()
}

// ms converts a duration to float milliseconds for JSON and logs.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
