package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

const (
	setupRounds    = 3    // set-ups per run; setup_s is their median
	warmRequests   = 1000 // fixed warm-up prefix of every HTTP set-up
	warmBatches    = 100  // warm-up ops of the library workload
	windows        = 5    // every timing and rate is the median over this many windows of the run
	hopProbeInputs = 150  // inputs of the routed-minus-direct probe (< probePool)
)

// runConfig is one invocation: one workload, traced or not.
type runConfig struct {
	wl        *workload
	seed      uint64
	span      time.Duration
	traced    bool
	stepserve string // path of the built server binary
	outDir    string
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	notes     []string // sample counts and other context, printed with the metrics
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// zeroUnset reports as 0 every metric of the spec list under one of
// the prefixes that the run did not exercise.
func zeroUnset(out metrics, specs []metricSpec, prefixes ...string) {
	for _, s := range specs {
		for _, p := range prefixes {
			if _, set := out[s.Name]; !set && strings.HasPrefix(s.Name, p) {
				out[s.Name] = 0
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// run executes one workload.
func run(cfg runConfig) (*result, error) {
	g := newGenerator(cfg.wl, cfg.seed)
	if cfg.wl.topo == topoLib {
		return runLib(cfg, g)
	}
	return runHTTP(cfg, g)
}

// setUp brings up fresh processes and sends the warm-up prefix.
func setUp(cfg runConfig, g *generator, round int) (*stack, error) {
	label := fmt.Sprintf("%s-setup%d", cfg.wl.name, round)
	st, err := startStack(cfg.wl.topo, cfg.stepserve, cfg.outDir, label)
	if err != nil {
		return nil, err
	}
	if err := warmUp(g, st.target, warmRequests); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func runHTTP(cfg runConfig, g *generator) (*result, error) {
	res := &result{metrics: metrics{}}
	ref, err := newReference(g)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// Set up: spawn → /healthz 200 → warm-up. The untraced run sets up
	// several times and reports the median; the last stack is measured.
	rounds := setupRounds
	if cfg.traced {
		rounds = 1
	}
	var st *stack
	var setups []float64
	for k := 0; k < rounds; k++ {
		if st != nil {
			st.stop()
		}
		t0 := time.Now()
		if st, err = setUp(cfg, g, k); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.stop()
	res.notef("setup_s samples %d: spawn, /healthz 200, %d warm-up requests", len(setups), warmRequests)

	span := cfg.span
	if cfg.traced {
		span /= 2 // the other half of the budget goes to the in-process replay
	}
	before, err := readStats(st)
	if err != nil {
		return nil, err
	}
	cpu0, err := sumOver(st.pids(), cpuSeconds)
	if err != nil {
		return nil, err
	}
	var recs []rec
	if cfg.wl.openRate > 0 {
		recs = openLoop(g, st.target, span)
	} else {
		recs = closedLoop(g, st.target, streamRun, 0, span)
	}
	cpu1, err := sumOver(st.pids(), cpuSeconds)
	if err != nil {
		return nil, err
	}
	after, err := readStats(st)
	if err != nil {
		return nil, err
	}
	rss, err := sumOver(st.pids(), peakRSSMB)
	if err != nil {
		return nil, err
	}

	// Outputs: every sampled answer against the in-process walk, then
	// one input down every path.
	res.correct = true
	checked, err := ref.checkRecords(recs)
	if err == nil {
		var seen string
		seen, err = ref.crossPaths(st.target)
		res.notef("outputs checked %d sampled answers bitwise; cross-path probe saw%s", checked, seen)
	}
	if err != nil {
		res.correct = false
		res.notef("output check failed: %v", err)
	}

	sum := summarize(g, recs, span)
	res.attempted, res.failed = len(recs), len(recs)-sum.ok-sum.refused
	if sum.ok == 0 {
		return nil, fmt.Errorf("no request of the measured run was answered")
	}
	if !cfg.traced {
		m := res.metrics
		m["setup_s"] = median(setups)
		m["client_p50_ms"] = sum.p50
		m["client_p95_ms"] = sum.p95
		m["goodput_rps"] = sum.goodput
		m["deadline_hit_rate"] = share(float64(sum.inTime), float64(len(recs)))
		m["mean_rung"] = sum.rungSum / float64(sum.ok)
		m["cpu_ms_per_answer"] = (cpu1 - cpu0) * 1e3 / float64(sum.ok)
		m["peak_rss_mb"] = rss
		res.notef("client clock samples %d (%d per window, %d windows); percentiles and goodput are window medians", sum.ok, sum.ok/windows, windows)
		return res, nil
	}

	m := sum.layerMetrics(recs)
	statsMetrics(m, before, after)
	if cfg.wl.topo == topoRouted {
		hop, err := hopProbe(g, st)
		if err != nil {
			return nil, err
		}
		m["cluster.hop_p50_ms"] = hop
	}
	tr := newTracer()
	lm, err := runLayers(cfg.wl, g, tr, st.replicas[0].url)
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	var planned float64
	for _, v := range after.serve.StepTimeMs {
		planned += v
	}
	m["governor.step_est_ratio"] = share(planned*1e3, m["infer.walk_b1_wN_us"])
	zeroUnset(m, perLayer, "cluster.")
	res.metrics = m
	res.notef("wire-side layer metrics from %d requests over %.1f s; *_us metrics from the in-process replay (%d requests, %d kernel walks, %d spans)",
		len(recs), span.Seconds(), replayRequests, kernelInputs, len(tr.spans))
	return res, tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.wl.name+".json"))
}

// summary is the client-side digest of a measured run.
type summary struct {
	ok, inTime         int
	refused            int // 503: the service's own refusal of a deadline it cannot meet
	rungSum            float64
	p50, p95, goodput  float64
	wallMs, atS, lates []float64 // per answered request
}

// summarize digests the records. A request counts as in time when a
// valid answer reached the client within its deadline by the client's
// clock; failures and refusals are misses. A refusal is not a failed
// operation, though: fast-failing an unmeetable deadline is the
// admission controller doing its documented job.
func summarize(g *generator, recs []rec, span time.Duration) *summary {
	s := &summary{}
	var goodAt []float64
	for i := range recs {
		r := &recs[i]
		if r.status == http.StatusServiceUnavailable {
			s.refused++
		}
		if !r.ok {
			continue
		}
		s.ok++
		s.rungSum += float64(r.ans.Subnet)
		s.wallMs = append(s.wallMs, ms(r.wall))
		s.atS = append(s.atS, r.at.Seconds())
		s.lates = append(s.lates, ms(r.late))
		if ms(r.wall) <= g.tails[r.tail].deadlineMs {
			s.inTime++
			goodAt = append(goodAt, r.at.Seconds())
		}
	}
	s.p50, s.p95 = windowPercentiles(s.atS, s.wallMs, span)
	s.goodput = windowRate(goodAt, span)
	return s
}

// windowPercentiles returns the p50 and p95 of samples taken at the
// given offsets into a run, each as the median over the run's windows.
func windowPercentiles(atS, samples []float64, span time.Duration) (p50, p95 float64) {
	p50 = windowMedian(atS, samples, span.Seconds(), windows, func(w []float64) float64 { return percentile(w, 0.50) })
	p95 = windowMedian(atS, samples, span.Seconds(), windows, func(w []float64) float64 { return percentile(w, 0.95) })
	return p50, p95
}

// windowRate returns events per second, as the median over the run's
// windows, of events at the given offsets into a run.
func windowRate(atS []float64, span time.Duration) float64 {
	return windowMedian(atS, atS, span.Seconds(), windows, func(w []float64) float64 {
		return float64(len(w)) / (span.Seconds() / windows)
	})
}

// layerMetrics derives the per-layer metrics that the wire shows:
// what the client counted and what each answer says about itself.
func (s *summary) layerMetrics(recs []rec) metrics {
	m := metrics{}
	sent := float64(len(recs))
	m["client.sent"] = sent
	m["client.ok"] = float64(s.ok)
	failed := sent - float64(s.ok+s.refused)
	m["client.failed"] = failed
	m["client.fail_rate"] = share(failed, sent)
	m["client.late_p95_ms"] = percentile(s.lates, 0.95)
	m["client.p99_ms"] = percentile(append([]float64(nil), s.wallMs...), 0.99)

	var envelope, service, queue []float64
	var reqBytes, respBytes, met, hits, resumes, macs float64
	var rungs [ladderRungs]float64
	for i := range recs {
		r := &recs[i]
		if !r.ok {
			continue
		}
		envelope = append(envelope, ms(r.wall)-r.ans.LatencyMs)
		service = append(service, r.ans.LatencyMs)
		queue = append(queue, r.ans.QueueWaitMs)
		reqBytes += float64(r.reqBytes)
		respBytes += float64(r.respBytes)
		macs += float64(r.ans.MACs)
		if r.ans.Subnet <= ladderRungs {
			rungs[r.ans.Subnet-1]++
		}
		if r.ans.DeadlineMet {
			met++
		}
		if r.ans.CacheHit {
			hits++
		}
		if r.ans.Resumed {
			resumes++
		}
	}
	ok := float64(s.ok)
	m["stepserve.envelope_p50_ms"] = percentile(envelope, 0.50)
	m["stepserve.req_bytes"] = reqBytes / ok
	m["stepserve.resp_bytes"] = respBytes / ok
	m["serve.service_p50_ms"] = percentile(service, 0.50)
	m["serve.queue_wait_p50_ms"] = percentile(queue, 0.50)
	m["serve.queue_wait_p95_ms"] = percentile(queue, 0.95)
	m["serve.rejected_share"] = share(float64(s.refused), sent)
	for i, n := range rungs {
		m[fmt.Sprintf("serve.rung_share_%d", i+1)] = n / ok
	}
	m["serve.deadline_met_server_share"] = met / ok
	m["serve.kmacs_per_answer"] = macs / ok / 1e3
	m["cache.hit_share"] = hits / ok
	m["cache.resume_share"] = resumes / ok
	return m
}

// stackStats is one reading of every /stats endpoint of a stack: the
// replicas' counters summed, and the router's.
type stackStats struct {
	serve  serveStats
	router routerStats
}

func readStats(st *stack) (stackStats, error) {
	var out stackStats
	for _, p := range st.replicas {
		var s serveStats
		if err := getJSON(p.url+"/stats", &s); err != nil {
			return out, err
		}
		out.serve.Refreshes += s.Refreshes
		out.serve.CacheEntries += s.CacheEntries
		out.serve.CacheBytes += s.CacheBytes
		out.serve.CacheEvictions += s.CacheEvictions
		out.serve.StepTimeMs = s.StepTimeMs
	}
	if st.router != nil {
		if err := getJSON(st.router.url+"/stats", &out.router); err != nil {
			return out, err
		}
	}
	return out, nil
}

// statsMetrics derives the per-layer metrics the servers count
// themselves, as the change over the measured run.
func statsMetrics(m metrics, before, after stackStats) {
	m["serve.refreshes"] = float64(after.serve.Refreshes - before.serve.Refreshes)
	m["cache.evictions"] = float64(after.serve.CacheEvictions - before.serve.CacheEvictions)
	m["cache.bytes_per_entry"] = share(float64(after.serve.CacheBytes), float64(after.serve.CacheEntries))
	routed := float64(after.router.AffinityRouted - before.router.AffinityRouted)
	spilled := float64(after.router.AffinitySpilled - before.router.AffinitySpilled)
	m["cluster.affinity_hit_share"] = share(routed, routed+spilled)
	m["cluster.spill_share"] = share(spilled, routed+spilled)
	m["cluster.retries"] = float64(after.router.Retries - before.router.Retries)
	var terr int64
	for i, r := range after.router.Replicas {
		terr += r.TransportErrors
		if i < len(before.router.Replicas) {
			terr -= before.router.Replicas[i].TransportErrors
		}
	}
	m["cluster.transport_errors"] = float64(terr)
}

// hopProbe measures what the router adds on the same inputs: each
// fresh input goes through the router (a cold walk on the replica its
// key hashes to), then straight to each replica — a cold walk on the
// one that has not seen it. The result is the median of routed cold
// minus direct cold, pairwise.
func hopProbe(g *generator, st *stack) (float64, error) {
	viaRouter := newConn(st.target)
	defer viaRouter.close()
	var diffs []float64
	for i := 0; i < hopProbeInputs; i++ {
		input := g.probeInput(1 + i)
		routed := rec{input: input, tail: g.looseTail()}
		viaRouter.send(g, &routed, time.Now())
		if !routed.ok {
			return 0, fmt.Errorf("hop probe: routed request failed (HTTP status %d)", routed.status)
		}
		for _, p := range st.replicas {
			c := newConn(p.url)
			direct := rec{input: input, tail: g.looseTail()}
			c.send(g, &direct, time.Now())
			c.close()
			if !direct.ok {
				return 0, fmt.Errorf("hop probe: direct request failed (HTTP status %d)", direct.status)
			}
			if !direct.ans.CacheHit {
				diffs = append(diffs, ms(routed.wall)-ms(direct.wall))
			}
		}
	}
	return median(diffs), nil
}

// runLib is the library workload: no HTTP, one engine with
// Workers = nproc, one op = a batch of 8 images walked rung 1→4.
func runLib(cfg runConfig, g *generator) (*result, error) {
	const batch = 8
	res := &result{metrics: metrics{}, correct: true}
	var m *models.Model // rebuilt, with its engine, by every set-up round
	x := tensor.New(batch, imgC, imgHW, imgHW)
	load := func(op int) {
		for j := 0; j < batch; j++ {
			copy(x.Data()[j*imgLen:(j+1)*imgLen], g.inputs[(op*batch+j)%len(g.inputs)])
		}
	}
	var e *infer.Engine
	walk := func(op int, check bool) error {
		load(op)
		e.Reset(x)
		for s := 1; s <= ladderRungs; s++ {
			out, _, err := e.Step(s)
			if err != nil {
				return err
			}
			if check {
				want := m.Net.Forward(x, &nn.Context{Subnet: s})
				if !tensor.Equal(out, want, 1e-9) {
					return fmt.Errorf("op %d: Step(%d) differs from Network.Forward beyond 1e-9", op, s)
				}
			}
		}
		return nil
	}

	// Set up: build the model and its engine, walk the warm-up ops.
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		if e != nil {
			e.Close()
		}
		t0 := time.Now()
		var err error
		if m, err = buildServedModel(); err != nil {
			return nil, err
		}
		e = infer.NewEngine(m.Net)
		e.Workers = runtime.NumCPU()
		for op := 0; op < warmBatches; op++ {
			if err := walk(op, false); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.Close()

	span := cfg.span
	if cfg.traced {
		span /= 2
	}
	var wallMs, atS []float64
	cpu0 := selfCPUSeconds()
	start := time.Now()
	for op := 0; time.Since(start) < span; op++ {
		t0 := time.Now()
		if err := walk(op, false); err != nil {
			return nil, err
		}
		wallMs = append(wallMs, ms(time.Since(t0)))
		atS = append(atS, t0.Sub(start).Seconds())
	}
	cpu1 := selfCPUSeconds()
	ops := len(wallMs)
	res.attempted = ops
	checked := 0
	for op := 0; op < ops && res.correct; op += sampleEvery {
		if err := walk(op, true); err != nil {
			res.correct = false
			res.notef("output check failed: %v", err)
		}
		checked++
	}
	res.notef("outputs checked %d sampled ops: every Step against Network.Forward at 1e-9", checked)

	if !cfg.traced {
		out := res.metrics
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		out["setup_s"] = median(setups)
		out["client_p50_ms"], out["client_p95_ms"] = windowPercentiles(atS, wallMs, span)
		out["goodput_rps"] = batch * windowRate(atS, span)
		out["deadline_hit_rate"] = 1 // the library call has no deadline: every answer is in time
		out["mean_rung"] = ladderRungs
		out["cpu_ms_per_answer"] = (cpu1 - cpu0) * 1e3 / float64(batch*ops)
		out["peak_rss_mb"] = rss
		res.notef("client clock samples %d ops of %d answers (%d windows)", ops, batch, windows)
		return res, nil
	}

	tr := newTracer()
	lm, err := runLayers(cfg.wl, g, tr, "")
	if err != nil {
		return nil, err
	}
	lm["client.sent"], lm["client.ok"] = float64(ops), float64(ops)
	zeroUnset(lm, perLayer, "client.", "stepserve.", "cluster.", "serve.", "cache.", "governor.step_est_ratio", "trace.")
	res.metrics = lm
	res.notef("*_us metrics from the in-process replay (%d kernel walks, %d spans)", kernelInputs, len(tr.spans))
	return res, tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.wl.name+".json"))
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
