package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileEdges(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.95, 5}, {1, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v of 1..5: got %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank: the p95 of 100 samples is the 95th, not the 96th.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.95); got != 95 {
		t.Errorf("p95 of 1..100: got %v, want 95", got)
	}
}

func TestMedianAndWindowMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("empty median: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median: got %v, want 2.5", got)
	}
	// Five windows of one second; one is spoiled by a burst, one is
	// empty and one sample lies outside the run. The median shrugs.
	at := []float64{0.1, 0.2, 1.5, 2.5, 2.6, 4.9, 5.0, -0.1}
	val := []float64{10, 10, 12, 900, 900, 11, 999, 999}
	mean := func(w []float64) float64 {
		s := 0.0
		for _, v := range w {
			s += v
		}
		return s / float64(len(w))
	}
	// Window means: 10, 12, 900, (empty), 11 → median of {10, 11, 12, 900}.
	if got := windowMedian(at, val, 5, 5, mean); got != 11.5 {
		t.Errorf("window median: got %v, want 11.5", got)
	}
	if got := windowMedian(nil, nil, 5, 5, mean); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Req: 0, Parent: -1, Start: 0, End: 10000},
		{Name: "child", Req: 0, Parent: 0, Start: 1000, End: 4000},
		{Name: "child", Req: 0, Parent: 0, Start: 5000, End: 6000},
		{Name: "root", Req: 2, Parent: -1, Start: 0, End: 2000},
	}}
	if got := tr.perReq("root", true); !reflect.DeepEqual(got, []float64{6, 2}) {
		t.Errorf("self time per request: got %v, want [6 2]", got)
	}
	if got := tr.perReq("child", false); !reflect.DeepEqual(got, []float64{4}) {
		t.Errorf("summed durations per request: got %v, want [4]", got)
	}
	var off *tracer
	off.end(off.begin("x", 0, -1)) // a nil tracer records nothing and does not panic
}

// TestGeneratorDeterminism: the same seed gives byte-identical bodies
// and the same arrival schedule; another seed gives others.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range []string{"deadline_open", "routed_repeat"} {
		wl := workloadByName(name)
		a, b, c := newGenerator(wl, 7), newGenerator(wl, 7), newGenerator(wl, 8)
		same, differ := true, false
		for i := 0; i < 300; i++ {
			for _, stream := range []uint64{streamWarm, streamRun} {
				ai, at := a.pick(stream, i)
				bi, bt := b.pick(stream, i)
				ci, ct := c.pick(stream, i)
				ab, bb, cb := a.appendBody(nil, ai, at), b.appendBody(nil, bi, bt), c.appendBody(nil, ci, ct)
				same = same && bytes.Equal(ab, bb)
				differ = differ || !bytes.Equal(ab, cb)
				var req struct {
					Input      []float64 `json:"input"`
					DeadlineMs float64   `json:"deadline_ms"`
				}
				if err := json.Unmarshal(ab, &req); err != nil {
					t.Fatalf("%s: body %d is not JSON: %v", name, i, err)
				}
				if !reflect.DeepEqual(req.Input, a.inputs[ai]) || req.DeadlineMs != a.tails[at].deadlineMs {
					t.Fatalf("%s: body %d does not round-trip its input and deadline", name, i)
				}
			}
		}
		if !same {
			t.Errorf("%s: same seed gave different bodies", name)
		}
		if !differ {
			t.Errorf("%s: different seeds gave identical bodies", name)
		}
	}
	wl := workloadByName("lib_batch8") // arrivals depend on the seed and the rate only; this pool is the cheapest to build
	rated := *wl
	rated.openRate = 600
	wl = &rated
	a, b, c := newGenerator(wl, 7).arrivals(2*time.Second), newGenerator(wl, 7).arrivals(2*time.Second), newGenerator(wl, 8).arrivals(2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same arrival schedule")
	}
	if rate := float64(len(a)) / 2; math.Abs(rate-wl.openRate) > 0.1*wl.openRate {
		t.Errorf("arrival rate %.0f/s, want about %.0f/s", rate, wl.openRate)
	}
}

// TestStreamShapes pins the properties the workloads are chosen for.
func TestStreamShapes(t *testing.T) {
	cold := newGenerator(workloadByName("direct_cold"), 1)
	seen := map[int]bool{}
	for i := 0; i < uniquePool; i++ {
		in, _ := cold.pick(streamRun, i)
		if seen[in] {
			t.Fatalf("direct_cold repeats input %d within one pool cycle", in)
		}
		seen[in] = true
	}
	rep := newGenerator(workloadByName("direct_repeat"), 1)
	for i := 0; i < 64; i++ {
		if in, _ := rep.pick(streamWarm, i); in != i {
			t.Fatalf("direct_repeat warm-up request %d sends key %d, want every hot key once", i, in)
		}
	}
	for i := 0; i < 2000; i++ {
		if in, _ := rep.pick(streamRun, i); in >= 64 {
			t.Fatalf("direct_repeat request %d leaves the hot pool (input %d)", i, in)
		}
	}
	routed := newGenerator(workloadByName("routed_repeat"), 1)
	hot, first := 0, 0
	for i := 0; i < 20000; i++ {
		in, _ := routed.pick(streamRun, i)
		if in < 128 {
			hot++
		}
		if in == 0 {
			first++
		}
		if in >= 128+uniquePool {
			t.Fatalf("routed_repeat request %d draws probe input %d", i, in)
		}
	}
	if s := float64(hot) / 20000; math.Abs(s-0.7) > 0.02 {
		t.Errorf("routed_repeat hot share %.3f, want 0.70", s)
	}
	// zipf(1) over 128 keys gives the first key 1/H(128) ≈ 18.4% of the hot draws.
	if s := float64(first) / float64(hot); math.Abs(s-0.184) > 0.02 {
		t.Errorf("routed_repeat first-key share %.3f of hot draws, want about 0.184", s)
	}
}

// TestSpecMatchesBenchmarkJSON: every workload and metric name in
// BENCHMARK.json is one the code emits and vice versa, with the same
// unit, direction and bound, inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n code %v", file.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", file.PerLayer, perLayer)
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", file.RunSeconds)
	}
	if len(workloadTable) != len(workloadSpecs) {
		t.Fatalf("%d workloads implemented, %d specified", len(workloadTable), len(workloadSpecs))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for i, w := range workloadSpecs {
		name(w.Name)
		if workloadTable[i].name != w.Name {
			t.Errorf("workload %d is implemented as %q, specified as %q", i, workloadTable[i].name, w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// TestZeroUnset: a topology reports the layers it does not exercise
// as 0 and leaves what it measured alone.
func TestZeroUnset(t *testing.T) {
	m := metrics{"cluster.retries": 3}
	zeroUnset(m, perLayer, "cluster.", "trace.")
	if m["cluster.retries"] != 3 {
		t.Error("zeroUnset overwrote a measured value")
	}
	if v, ok := m["cluster.hop_p50_ms"]; !ok || v != 0 {
		t.Error("zeroUnset left an unexercised metric unset")
	}
	if _, ok := m["infer.walk_b1_us"]; ok {
		t.Error("zeroUnset touched a metric outside its prefixes")
	}
}

// TestCheckAnswerCatchesMismatch: the output check accepts the
// reference walk's own answer and rejects a one-bit logit error, a
// wrong pred and a wrong MAC count.
func TestCheckAnswerCatchesMismatch(t *testing.T) {
	ref, err := newReference(newGenerator(workloadByName("lib_batch8"), 3))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	want, err := ref.walk(5)
	if err != nil {
		t.Fatal(err)
	}
	good := func() inferAnswer {
		a := inferAnswer{Subnet: 3, Logits: append([]float64(nil), want[2]...), MACs: ref.cumMACs[2]}
		for j, v := range a.Logits {
			if v > a.Logits[a.Pred] {
				a.Pred = j
			}
		}
		return a
	}
	a := good()
	if err := ref.checkAnswer(5, &a); err != nil {
		t.Fatalf("the reference's own answer was rejected: %v", err)
	}
	a = good()
	a.Logits[4] = math.Float64frombits(math.Float64bits(a.Logits[4]) ^ 1)
	if ref.checkAnswer(5, &a) == nil {
		t.Error("a one-bit logit error passed")
	}
	a = good()
	a.Pred = (a.Pred + 1) % len(a.Logits)
	if ref.checkAnswer(5, &a) == nil {
		t.Error("a wrong pred passed")
	}
	a = good()
	a.MACs++
	if ref.checkAnswer(5, &a) == nil {
		t.Error("a wrong cold MAC count passed")
	}
	a = good()
	a.CacheHit = true
	if ref.checkAnswer(5, &a) == nil {
		t.Error("a cache hit reporting MACs passed")
	}
	a = good()
	a.Subnet = 4 // rung 3's logits presented as rung 4's
	if ref.checkAnswer(5, &a) == nil {
		t.Error("logits of the wrong rung passed")
	}
}
