package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/governor"
	"steppingnet/internal/models"
	"steppingnet/internal/serve"
	"steppingnet/internal/tensor"
)

// deadlineClass is one entry of the loadgen's class mix.
type deadlineClass struct {
	d    time.Duration
	w    float64 // relative weight
	prio int     // serve priority class (0 = lowest)
}

// parseDeadlineMix parses "4ms:0.9,12ms:0.1:hi" into classes —
// deadline:weight with an optional third field naming the priority
// ("hi"/"lo" or a numeric class). An empty spec yields a single
// low-priority class at the server's default deadline.
func parseDeadlineMix(spec string, fallback time.Duration) ([]deadlineClass, error) {
	if strings.TrimSpace(spec) == "" {
		return []deadlineClass{{d: fallback, w: 1}}, nil
	}
	var mix []deadlineClass
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("bad class %q (want deadline:weight or deadline:weight:prio)", part)
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad deadline in %q: %v", part, err)
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		prio := 0
		if len(fields) == 3 {
			switch fields[2] {
			case "lo":
				prio = 0
			case "hi":
				prio = 1
			default:
				prio, err = strconv.Atoi(fields[2])
				if err != nil || prio < 0 {
					return nil, fmt.Errorf("bad priority in %q (want lo, hi or a class number)", part)
				}
			}
		}
		mix = append(mix, deadlineClass{d: d, w: w, prio: prio})
	}
	return mix, nil
}

// loadShape maps a -scenario name to its rate multiplier as a pure
// function of the elapsed run fraction ∈ [0,1). The shapes are
// deterministic by construction — no randomness, no wall-clock beyond
// the run's own elapsed time — so the same flags reproduce the same
// offered-load curve and the governor's response to it:
//
//	constant  1× throughout (the pre-scenario behavior)
//	diurnal   one sinusoidal "day": trough 0.25×, peak 1.75×, mean 1×
//	burst     calm 0.5× baseline with 3× bursts over the 15–25%,
//	          45–55% and 75–85% windows of the run
//	step      staircase 0.5× → 1× → 2× → 4× by quarter
func loadShape(name string) (func(frac float64) float64, error) {
	switch name {
	case "", "constant":
		return func(float64) float64 { return 1 }, nil
	case "diurnal":
		return func(f float64) float64 { return 1 + 0.75*math.Sin(2*math.Pi*f-math.Pi/2) }, nil
	case "burst":
		return func(f float64) float64 {
			if (f >= 0.15 && f < 0.25) || (f >= 0.45 && f < 0.55) || (f >= 0.75 && f < 0.85) {
				return 3
			}
			return 0.5
		}, nil
	case "step":
		return func(f float64) float64 {
			switch {
			case f < 0.25:
				return 0.5
			case f < 0.5:
				return 1
			case f < 0.75:
				return 2
			default:
				return 4
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown scenario %q (want constant, diurnal, burst or step)", name)
}

// inputMixer draws request inputs with a configurable key-reuse mix:
// a `repeat` fraction of requests re-send one of hotPoolSize popular
// inputs with a harmonic (zipf-like) popularity skew — the traffic a
// semantic result cache exploits — while the rest walk a coldRingSize
// ring of mostly-unique inputs. repeat = 0 degenerates to the cold
// ring alone (the cache-off baseline sends the exact same byte
// streams, so comparisons isolate the cache).
type inputMixer struct {
	hot    [][]float64
	cold   [][]float64
	cum    []float64 // cumulative harmonic weights over hot
	repeat float64
	next   int // cold ring cursor
}

// Hot/cold pool sizes of the loadgen's key-reuse mix: the hot pool is
// small enough that any reasonable -cache setting holds all of it,
// the cold ring large enough that a small cache cannot.
const (
	hotPoolSize  = 16
	coldRingSize = 1024
)

// newInputMixer seeds both pools deterministically from rng.
func newInputMixer(rng *tensor.RNG, imgLen int, repeat float64) *inputMixer {
	mx := &inputMixer{repeat: repeat}
	mx.hot = make([][]float64, hotPoolSize)
	mx.cum = make([]float64, hotPoolSize)
	sum := 0.0
	for i := range mx.hot {
		mx.hot[i] = randomInput(rng, imgLen)
		// Zipf s=0.5: key k gets weight 1/√k. Skewed toward low keys,
		// but not so head-heavy that the top two keys carry half the
		// pool (as 1/k would) — the popularity tail is what stresses a
		// cache's eviction policy and a router's key placement.
		sum += 1 / math.Sqrt(float64(i+1))
		mx.cum[i] = sum
	}
	mx.cold = make([][]float64, coldRingSize)
	for i := range mx.cold {
		mx.cold[i] = randomInput(rng, imgLen)
	}
	return mx
}

// pick returns the next request's input; rng drives the hot/cold coin
// and the zipf draw, the cold cursor advances deterministically.
func (mx *inputMixer) pick(rng *tensor.RNG) []float64 {
	if mx.repeat > 0 && rng.Float64() < mx.repeat {
		x := rng.Float64() * mx.cum[len(mx.cum)-1]
		for i, c := range mx.cum {
			if x < c {
				return mx.hot[i]
			}
		}
		return mx.hot[len(mx.hot)-1]
	}
	in := mx.cold[mx.next%len(mx.cold)]
	mx.next++
	return in
}

// burstAt advances the carry-forward accumulator by one tick at the
// given shape multiplier, returning how many requests to fire now.
// Pure and deterministic — the golden scenario tests pin its output
// sequence for every -scenario shape.
func burstAt(carry *float64, burst int, mult float64) int {
	*carry += float64(burst) * mult
	n := int(*carry)
	*carry -= float64(n)
	return n
}

// pickClass draws a class index proportionally to the weights.
func pickClass(mix []deadlineClass, rng *tensor.RNG) int {
	var total float64
	for _, c := range mix {
		total += c.w
	}
	x := rng.Float64() * total
	for i, c := range mix {
		x -= c.w
		if x < 0 {
			return i
		}
	}
	return len(mix) - 1
}

// classStats accumulates per-deadline-class outcomes.
type classStats struct {
	sent, served, rejected, transport, dropped, met int
	lats                                            []time.Duration
}

// loadTarget is one destination the generator spreads requests over —
// the in-process server, a replica URL or a router URL — plus its
// client-side outcome counters (guarded by the run's mutex).
type loadTarget struct {
	name   string
	submit func(serve.Request) (serve.Result, error)

	sent, ok, rejected, transport int
}

// maxInflight caps the load generator's concurrent requests. Ticks
// that fire beyond the cap are counted as client-side drops instead
// of spawning ever more goroutines — an unbounded spawn backlog would
// stretch the measurement window and fake better throughput than the
// service really has.
const maxInflight = 256

// driveLoad offers an open-loop request stream at the given base rate
// for the given duration, spreading requests round-robin over the
// targets and classifying every outcome client-side: served (with
// latency), rejected (typed overload shed), transport error
// (unreachable, torn or draining target), or dropped before send
// (in-flight cap). The shape function (see loadShape) scales the
// instantaneous rate by the elapsed run fraction — fractional
// per-tick counts are carried forward so the offered total tracks the
// curve's integral rather than rounding it away. A nil pick function
// sends input-less requests — remote replicas synthesize their own
// seeded image, keeping the generator's CPU out of the measurement.
func driveLoad(tgs []*loadTarget, rps float64, duration time.Duration, mix []deadlineClass, pick func(*tensor.RNG) []float64, rng *tensor.RNG, shape func(float64) float64) ([]classStats, []int64, int) {
	var (
		mu       sync.Mutex
		perClass = make([]classStats, len(mix))
		bySubnet []int64
		wg       sync.WaitGroup
		inflight atomic.Int64
	)

	// Sub-millisecond tick intervals coalesce under load, silently
	// capping the offered rate; tick at ≥1ms and fire a burst per
	// tick instead.
	interval := time.Duration(float64(time.Second) / rps)
	burst := 1
	if interval < time.Millisecond {
		burst = int(rps*time.Millisecond.Seconds() + 0.5)
		interval = time.Duration(float64(burst) * float64(time.Second) / rps)
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(duration)
	offered := 0

	fire := func() {
		offered++
		ci := pickClass(mix, rng)
		tg := tgs[offered%len(tgs)]
		st := &perClass[ci]
		st.sent++
		tg.sent++
		if inflight.Load() >= maxInflight {
			st.dropped++
			return
		}
		inflight.Add(1)
		var in []float64
		if pick != nil {
			in = pick(rng)
		}
		wg.Add(1)
		go func(ci int, tg *loadTarget) {
			defer wg.Done()
			defer inflight.Add(-1)
			// Latencies below are service latency (admission→answer),
			// the serving layer's SLO; client-side time would mostly
			// measure this co-located generator's own goroutine
			// scheduling on a shared CPU.
			res, err := tg.submit(serve.Request{Input: in, Deadline: mix[ci].d, Priority: mix[ci].prio})
			mu.Lock()
			defer mu.Unlock()
			st := &perClass[ci]
			switch {
			case errors.Is(err, serve.ErrOverloaded), errors.Is(err, cluster.ErrNoReplicas):
				st.rejected++
				tg.rejected++
			case errors.Is(err, cluster.ErrTransport), errors.Is(err, serve.ErrClosed):
				st.transport++
				tg.transport++
			case err != nil:
				log.Printf("loadgen: submit: %v", err)
				st.transport++
				tg.transport++
			default:
				st.served++
				tg.ok++
				if res.DeadlineMet {
					st.met++
				}
				st.lats = append(st.lats, res.Latency)
				for res.Subnet > len(bySubnet) {
					bySubnet = append(bySubnet, 0)
				}
				if res.Subnet >= 1 {
					bySubnet[res.Subnet-1]++
				}
			}
		}(ci, tg)
	}

	start := time.Now()
	carry := 0.0
loop:
	for {
		select {
		case <-stop:
			break loop
		case <-ticker.C:
			// Scale this tick's burst by the scenario's multiplier at
			// the current point of the run; the fractional remainder
			// rolls into the next tick.
			frac := float64(time.Since(start)) / float64(duration)
			for i, n := 0, burstAt(&carry, burst, shape(frac)); i < n; i++ {
				fire()
			}
		}
	}
	wg.Wait()
	return perClass, bySubnet, offered
}

// printClassReport renders the per-class table, the per-priority SLO
// attainment verdicts and the subnet-ladder answer distribution every
// loadgen mode shares. The slo column is each row's fraction of served
// answers within its priority's p99 target ("-" for exempt classes);
// the verdict lines aggregate mix rows sharing a priority class and
// judge the measured p99 and hit-rate against the configured SLO.
func printClassReport(mix []deadlineClass, perClass []classStats, bySubnet []int64, offered int, rps float64, duration time.Duration, scenario string, slos []governor.SLO) {
	if scenario == "" {
		scenario = "constant"
	}
	fmt.Printf("\noffered %d requests (%.0f rps base × %v, scenario %s)\n", offered, rps, duration, scenario)
	fmt.Printf("%-10s %4s %7s %7s %7s %7s %7s %9s %9s %9s  %8s %8s\n",
		"deadline", "prio", "sent", "served", "reject", "xport", "drop", "p50", "p95", "p99", "hit-rate", "slo")
	for i, c := range mix {
		st := perClass[i]
		sort.Slice(st.lats, func(a, b int) bool { return st.lats[a] < st.lats[b] })
		hit := 0.0
		if st.served > 0 {
			hit = float64(st.met) / float64(st.served)
		}
		sloCol := "-"
		if s, ok := sloFor(slos, c.prio); ok && s.P99Target > 0 && st.served > 0 {
			within := 0
			for _, l := range st.lats {
				if l <= s.P99Target {
					within++
				}
			}
			sloCol = fmt.Sprintf("%.1f%%", 100*float64(within)/float64(st.served))
		}
		fmt.Printf("%-10v %4d %7d %7d %7d %7d %7d %8.2fm %8.2fm %8.2fm  %7.1f%% %8s\n",
			c.d, c.prio, st.sent, st.served, st.rejected, st.transport, st.dropped,
			serve.PercentileMs(st.lats, 0.50), serve.PercentileMs(st.lats, 0.95), serve.PercentileMs(st.lats, 0.99),
			100*hit, sloCol)
	}
	printSLOVerdicts(mix, perClass, slos)

	var served int64
	for _, c := range bySubnet {
		served += c
	}
	fmt.Printf("\nanswer distribution over the subnet ladder (%d served):\n", served)
	for s := 1; s <= len(bySubnet); s++ {
		frac := 0.0
		if served > 0 {
			frac = float64(bySubnet[s-1]) / float64(served)
		}
		fmt.Printf("  subnet %d %7d  %5.1f%%  %s\n", s, bySubnet[s-1], 100*frac, bar(frac, 40))
	}
}

// sloFor returns the SLO governing a priority class, reporting false
// for classes outside the spec or with a zero (exempt) entry.
func sloFor(slos []governor.SLO, prio int) (governor.SLO, bool) {
	if prio < 0 || prio >= len(slos) {
		return governor.SLO{}, false
	}
	s := slos[prio]
	if s.P99Target == 0 && s.MinHitRate == 0 {
		return governor.SLO{}, false
	}
	return s, true
}

// printSLOVerdicts judges each configured SLO against the client-side
// measurements, aggregating mix rows that share a priority class.
func printSLOVerdicts(mix []deadlineClass, perClass []classStats, slos []governor.SLO) {
	printed := false
	for prio := 0; prio < len(slos); prio++ {
		s, ok := sloFor(slos, prio)
		if !ok {
			continue
		}
		var (
			lats        []time.Duration
			served, met int
		)
		for i, c := range mix {
			if c.prio != prio {
				continue
			}
			lats = append(lats, perClass[i].lats...)
			served += perClass[i].served
			met += perClass[i].met
		}
		if served == 0 {
			continue
		}
		if !printed {
			fmt.Printf("\nSLO attainment (client view):\n")
			printed = true
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		p99 := serve.PercentileMs(lats, 0.99)
		hit := float64(met) / float64(served)
		verdict := "MET"
		if (s.P99Target > 0 && p99 > ms(s.P99Target)) || hit < s.MinHitRate {
			verdict = "VIOLATED"
		}
		line := fmt.Sprintf("  prio %d: p99 %.2fms", prio, p99)
		if s.P99Target > 0 {
			line += fmt.Sprintf(" (target %.2fms)", ms(s.P99Target))
		}
		line += fmt.Sprintf(", hit-rate %.1f%%", 100*hit)
		if s.MinHitRate > 0 {
			line += fmt.Sprintf(" (target %.1f%%)", 100*s.MinHitRate)
		}
		fmt.Printf("%s  → %s\n", line, verdict)
	}
}

// printTargetReport renders the client-side per-target outcome
// breakdown.
func printTargetReport(tgs []*loadTarget) {
	fmt.Printf("\nper-target outcomes (client view):\n")
	fmt.Printf("  %-28s %7s %7s %7s %7s\n", "target", "sent", "ok", "reject", "xport")
	for _, tg := range tgs {
		fmt.Printf("  %-28s %7d %7d %7d %7d\n", tg.name, tg.sent, tg.ok, tg.rejected, tg.transport)
	}
}

// runLoadgen drives the in-process serving layer (the original mode:
// no HTTP between generator and server) and prints the serving
// report, including the server's own per-priority protection summary.
func runLoadgen(srv *serve.Server, m *models.Model, rps float64, duration time.Duration, mix []deadlineClass, seed uint64, scenario string, shape func(float64) float64, slos []governor.SLO, repeat float64) {
	if rps <= 0 {
		log.Fatal("loadgen: -rps must be positive")
	}
	// Pre-seeded input pools: the generator must not spend its tick
	// budget on RNG work. The mixer's hot/cold split realizes the
	// -repeat key-reuse fraction (repeat 0 = every request from the
	// cold ring).
	rng := tensor.NewRNG(seed ^ 0x10ADF5)
	mx := newInputMixer(rng, m.InC*m.InH*m.InW, repeat)

	log.Printf("loadgen: %.0f rps base for %v (scenario %s), deadline mix %s, key reuse %.0f%%",
		rps, duration, scenario, mixString(mix), 100*repeat)
	tg := &loadTarget{name: "in-process", submit: srv.Submit}
	perClass, bySubnet, offered := driveLoad([]*loadTarget{tg}, rps, duration, mix, mx.pick, rng, shape)
	printClassReport(mix, perClass, bySubnet, offered, rps, duration, scenario, slos)

	snap := srv.Stats()
	fmt.Printf("\nserver: served %d, rejected %d, deadline hit-rate %.1f%%, mean %.0f kMAC/answer, %d calibration refreshes\n",
		snap.Served, snap.Rejected, 100*snap.DeadlineHitRate, meanKMAC(snap), snap.Refreshes)
	printClassProtection(snap)
}

// runRemoteLoadgen drives one or more replica/router URLs over HTTP:
// requests round-robin across the targets, outcomes are classified
// per target, and after the run each target's own /stats view is
// fetched and summarized (a router target additionally reports its
// retry/affinity counters, its per-replica breakdown and — when
// the replicas run semantic caches — each replica's cache-hit share,
// the end-to-end measure of affinity placement). With repeat > 0 the
// generator sends that fraction of requests from the zipf hot pool
// (inputs of imgLen elements, matching the replicas' input geometry).
// With slowConns > 0, that many slow-loris connections run against
// the first target for the whole window, demonstrating the
// -hdr-timeout defense.
func runRemoteLoadgen(targets []string, rps float64, duration time.Duration, mix []deadlineClass, seed uint64, slowConns int, scenario string, shape func(float64) float64, slos []governor.SLO, repeat float64, imgLen int) {
	if rps <= 0 {
		log.Fatal("loadgen: -rps must be positive")
	}
	rng := tensor.NewRNG(seed ^ 0x10ADF5)
	var (
		tgs      []*loadTarget
		backends []*cluster.Remote
	)
	for _, u := range targets {
		b := cluster.NewRemote(u)
		backends = append(backends, b)
		tgs = append(tgs, &loadTarget{name: b.Target(), submit: func(req serve.Request) (serve.Result, error) {
			// Transport budget: the request deadline plus slack for
			// queue-jump scheduling and the hop itself. The serving
			// layer answers within the deadline by construction; the
			// slack only catches wedged connections.
			ctx, cancel := context.WithTimeout(context.Background(), req.Deadline+2*time.Second)
			defer cancel()
			return b.Submit(ctx, req)
		}})
	}
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()

	// Refuse to measure a dead cluster: wait (briefly) until at least
	// one target probes healthy.
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		healthy := 0
		for _, b := range backends {
			if b.Health(waitCtx) == nil {
				healthy++
			}
		}
		if healthy > 0 {
			log.Printf("loadgen: %d/%d targets healthy", healthy, len(targets))
			break
		}
		if waitCtx.Err() != nil {
			log.Fatalf("loadgen: no healthy target among %v", targets)
		}
		time.Sleep(100 * time.Millisecond)
	}

	stopSlow := startSlowLoris(targets[0], slowConns)

	log.Printf("loadgen: %.0f rps base for %v (scenario %s) over %d targets, deadline mix %s, key reuse %.0f%%",
		rps, duration, scenario, len(targets), mixString(mix), 100*repeat)
	// Without -repeat the pick function stays nil: replicas synthesize
	// their own seeded images, keeping the generator's CPU out of the
	// measurement. With -repeat the hot/cold mixer sends bit-identical
	// repeated payloads — the traffic affinity routing concentrates.
	var pick func(*tensor.RNG) []float64
	if repeat > 0 {
		pick = newInputMixer(rng, imgLen, repeat).pick
	}
	perClass, bySubnet, offered := driveLoad(tgs, rps, duration, mix, pick, rng, shape)
	printClassReport(mix, perClass, bySubnet, offered, rps, duration, scenario, slos)
	printTargetReport(tgs)

	if opened, closed := stopSlow(); opened > 0 {
		fmt.Printf("\nslow-loris: %d connections opened, %d closed by the server during the run\n", opened, closed)
	}
	for _, u := range targets {
		printRemoteView(u)
	}
}

// printRemoteView fetches one target's /stats and prints its own view
// of the run — a replica's serving counters, or a router's routing
// breakdown (retries, per-replica outcomes).
func printRemoteView(target string) {
	resp, err := http.Get(strings.TrimRight(target, "/") + "/stats")
	if err != nil {
		fmt.Printf("\n%s: stats unavailable (%v)\n", target, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		fmt.Printf("\n%s: stats unavailable (status %d)\n", target, resp.StatusCode)
		return
	}

	// A router's payload is recognizable by its replica breakdown.
	var rst cluster.RouterStats
	if json.Unmarshal(body, &rst) == nil && len(rst.Replicas) > 0 {
		fmt.Printf("\n%s (router view): submitted %d, served %d, failed %d, retries %d, %d/%d available\n",
			target, rst.Submitted, rst.Served, rst.Failed, rst.Retries, rst.Available, len(rst.Replicas))
		affinityOn := rst.AffinityRouted > 0 || rst.AffinitySpilled > 0
		var hitTotal, hitTop int64
		for _, rs := range rst.Replicas {
			line := fmt.Sprintf("  %-28s up=%-5v breaker=%-9s ok=%-6d reject=%-6d xport=%-5d bad=%-4d retried=%d",
				rs.Target, rs.Up, rs.Breaker, rs.Success, rs.Rejected, rs.TransportErrors, rs.BadInputs, rs.Retried)
			if affinityOn {
				line += fmt.Sprintf(" affinity=%-5d spills=%d", rs.AffinityHits, rs.AffinitySpills)
			}
			// Each replica's own /stats reveals where cache reuse
			// actually landed — the concentration affinity buys.
			if snap, ok := replicaCacheSnap(rs.Target); ok {
				hits := snap.CacheHits + snap.CacheResumes
				line += fmt.Sprintf(" cache-hits=%d", hits)
				hitTotal += hits
				if hits > hitTop {
					hitTop = hits
				}
			}
			fmt.Println(line)
		}
		if affinityOn {
			line := fmt.Sprintf("  affinity: %d routed to HRW choice, %d spilled", rst.AffinityRouted, rst.AffinitySpilled)
			if hitTotal > 0 {
				line += fmt.Sprintf("; %d cache hits+resumes cluster-wide (top replica %.0f%%)",
					hitTotal, 100*float64(hitTop)/float64(hitTotal))
			}
			fmt.Println(line)
		}
		return
	}
	var snap serve.Snapshot
	if json.Unmarshal(body, &snap) != nil {
		fmt.Printf("\n%s: unrecognized stats payload\n", target)
		return
	}
	fmt.Printf("\n%s (server view): served %d, rejected %d, deadline hit-rate %.1f%%, mean %.0f kMAC/answer\n",
		target, snap.Served, snap.Rejected, 100*snap.DeadlineHitRate, meanKMAC(snap))
	printClassProtection(snap)
}

// replicaCacheSnap fetches one replica's own /stats snapshot for the
// cache columns of the router view, reporting false when the replica
// is unreachable or runs no cache.
func replicaCacheSnap(target string) (serve.Snapshot, bool) {
	var snap serve.Snapshot
	resp, err := http.Get(strings.TrimRight(target, "/") + "/stats")
	if err != nil {
		return snap, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return snap, false
	}
	if json.Unmarshal(body, &snap) != nil || !snap.CacheEnabled {
		return snap, false
	}
	return snap, true
}

// printClassProtection renders a server snapshot's per-priority
// summary when priorities are configured, plus the overload governor's
// own accounting when the server runs one.
func printClassProtection(snap serve.Snapshot) {
	if len(snap.Classes) > 1 {
		fmt.Printf("per-priority protection (server view):\n")
		for _, cs := range snap.Classes {
			if cs.Submitted == 0 {
				continue
			}
			line := fmt.Sprintf("  prio %d: served %5d  rejected %5d  hit-rate %5.1f%%  p99 %6.2fms  subnets %v  slo-viol %d  brownouts %d",
				cs.Priority, cs.Served, cs.Rejected, 100*cs.DeadlineHitRate, cs.P99Ms, cs.BySubnet,
				cs.SLOViolations, cs.BrownoutTransitions)
			if snap.CacheEnabled || cs.EarlyExits > 0 {
				line += fmt.Sprintf("  cache-hit %d  resumed %d  early-exit %d", cs.CacheHits, cs.CacheResumes, cs.EarlyExits)
			}
			fmt.Println(line)
		}
	}
	if snap.CacheEnabled {
		reuse := 0.0
		if snap.Served > 0 {
			reuse = float64(snap.CacheHits+snap.CacheResumes) / float64(snap.Served)
		}
		fmt.Printf("semantic cache: %d hits, %d resumes (%.1f%% of answers), %d early exits; %d entries / %d KiB live, %d evictions\n",
			snap.CacheHits, snap.CacheResumes, 100*reuse, snap.EarlyExits,
			snap.CacheEntries, snap.CacheBytes>>10, snap.CacheEvictions)
	} else if snap.EarlyExits > 0 {
		fmt.Printf("early exit: %d answers stopped below their affordable rung\n", snap.EarlyExits)
	}
	if snap.Policy != nil {
		fmt.Printf("governor: %d SLO violations, %d brownout transitions, final levels %v (deepest %d), lookahead %.2f\n",
			snap.SLOViolations, snap.BrownoutTransitions, snap.Policy.Level, snap.Policy.MaxLevel, snap.Policy.Lookahead)
	}
}

// startSlowLoris opens n connections to the target that send request
// headers one byte per second — the classic attack a missing
// ReadHeaderTimeout leaves open forever. Returns a report function
// yielding (opened, closed-by-server) counts; a hardened server
// closes every connection within its -hdr-timeout while an unhardened
// one holds them all.
func startSlowLoris(target string, n int) func() (opened, closed int) {
	if n <= 0 {
		return func() (int, int) { return 0, 0 }
	}
	u, err := url.Parse(target)
	if err != nil {
		log.Fatalf("slow-loris: bad target %q: %v", target, err)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Host, "80")
	}

	var opened, closed atomic.Int64
	for i := 0; i < n; i++ {
		go func() {
			conn, err := net.DialTimeout("tcp", host, 5*time.Second)
			if err != nil {
				return
			}
			defer conn.Close()
			opened.Add(1)
			if _, err := fmt.Fprintf(conn, "POST /infer HTTP/1.1\r\nHost: %s\r\nX-Drip", u.Host); err != nil {
				closed.Add(1)
				return
			}
			for {
				time.Sleep(time.Second)
				// The write only surfaces the server-side close once the
				// kernel buffer drains/resets, so also watch for EOF with
				// a short read.
				conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond)) //nolint:errcheck — best-effort probe
				var b [1]byte
				if _, err := conn.Read(b[:]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
					closed.Add(1)
					return
				}
				if _, err := conn.Write([]byte("p")); err != nil {
					closed.Add(1)
					return
				}
			}
		}()
	}
	return func() (int, int) { return int(opened.Load()), int(closed.Load()) }
}

// mixString renders the class mix for the log line.
func mixString(mix []deadlineClass) string {
	parts := make([]string, len(mix))
	for i, c := range mix {
		parts[i] = fmt.Sprintf("%v:%g:%d", c.d, c.w, c.prio)
	}
	return strings.Join(parts, ",")
}

// bar renders a fraction as a fixed-width ASCII bar.
func bar(frac float64, width int) string {
	fill := int(frac*float64(width) + 0.5)
	if fill > width {
		fill = width
	}
	return strings.Repeat("█", fill) + strings.Repeat("·", width-fill)
}

// meanKMAC is the average per-answer MAC cost in thousands.
func meanKMAC(s serve.Snapshot) float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.TotalMACs) / float64(s.Served) / 1e3
}
