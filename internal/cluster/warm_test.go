package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"steppingnet/internal/governor"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// warmModel builds the small LeNet-3C1L the warming tests serve —
// a twin of the chaos-test helper, duplicated here because this file
// lives in the internal test package (it drives warmOnce and the
// spill queue by hand).
func warmModel(seed uint64) *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 4, InC: 1, InH: 8, InW: 8, Expansion: 1.5,
		Subnets: 3, Rule: nn.RuleIncremental, Seed: seed,
	})
	r := tensor.NewRNG(seed ^ 0x5E12E)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(3))
		}
	}
	return m
}

func warmInput(seed uint64) []float64 {
	x := tensor.New(1 * 8 * 8)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x.Data()
}

func warmSteps(m *models.Model, n int) governor.LatencyModel {
	lm := governor.LatencyModel{StepMACs: governor.StepCosts(m, n), StepTime: make([]time.Duration, n)}
	for i := range lm.StepTime {
		lm.StepTime[i] = time.Nanosecond
	}
	return lm
}

// newWarmServer builds one cache-armed in-process replica for the
// warming tests.
func newWarmServer(t *testing.T, m *models.Model) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 3, Workers: 1, QueueDepth: 16, MaxBatch: 4,
		Calibration: warmSteps(m, 3), DefaultDeadline: time.Hour,
		CacheEntries: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestCacheEntryWireKey pins the key's wire encoding: cache keys are
// full-range 64-bit hashes, and values above 2^53 do not survive a
// trip through a JSON number — the hex-string form must round-trip
// every key bit-exactly.
func TestCacheEntryWireKey(t *testing.T) {
	keys := []cache.Key{0, 1, cache.Key(1) << 53, math.MaxUint64, 0xfedc_ba98_7654_3210}
	for _, k := range keys {
		got, err := ParseKey(FormatKey(k))
		if err != nil {
			t.Fatalf("ParseKey(FormatKey(%#x)): %v", uint64(k), err)
		}
		if got != k {
			t.Fatalf("key round trip: %#x → %#x", uint64(k), uint64(got))
		}
	}
	w := CacheEntryWire{Key: FormatKey(math.MaxUint64), Subnet: 2, Logits: []float64{1, 2}}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back CacheEntryWire
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	k, _, err := back.Entry()
	if err != nil {
		t.Fatal(err)
	}
	if k != math.MaxUint64 {
		t.Fatalf("max key corrupted by JSON trip: %#x", uint64(k))
	}
	if _, err := ParseKey("not-hex"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
}

// TestSpillFeedsWarmQueue pins the warming signal path: a bounded-load
// spill on a Warm router queues exactly one (deduplicated) transfer
// task, attributed from the HRW winner to the replica that caught the
// request. The fakes implement no CacheTransfer, so the drain pass
// must skip them without counting failures.
func TestSpillFeedsWarmQueue(t *testing.T) {
	fakes := []*fakeBackend{{name: "a"}, {name: "b"}, {name: "c"}}
	ro := newTestRouter(t, RouterConfig{Affinity: true, Warm: true, WarmInterval: -1}, fakes...)
	in := affinityInputs(1)[0]
	key := cache.KeyOf(in)

	first := servedBy(t, ro, fakes, in)
	ro.warmMu.Lock()
	n := len(ro.warmQueue)
	ro.warmMu.Unlock()
	if n != 0 {
		t.Fatalf("unloaded affinity dispatch queued a warm task")
	}

	// Load the winner past the spill bound (scores 30, 0, 0 → mean 10,
	// bound 20) and spill the key twice: one task, not two.
	ro.replicas[first].storeSnap(snap(30))
	spilledTo := servedBy(t, ro, fakes, in)
	servedBy(t, ro, fakes, in)
	ro.warmMu.Lock()
	tasks := append([]warmTask(nil), ro.warmQueue...)
	ro.warmMu.Unlock()
	if len(tasks) != 1 {
		t.Fatalf("two spills of one key queued %d warm tasks, want 1", len(tasks))
	}
	if tasks[0].key != key || tasks[0].from != ro.replicas[first] || tasks[0].to != ro.replicas[spilledTo] {
		t.Fatalf("warm task misattributed: key %#x from %s to %s",
			uint64(tasks[0].key), tasks[0].from.b.Target(), tasks[0].to.b.Target())
	}

	if got := ro.warmOnce(); got != 0 {
		t.Fatalf("warmOnce transferred %d entries across CacheTransfer-less fakes", got)
	}
	if ro.warmFailures.Load() != 0 {
		t.Fatalf("skipping a transfer-less backend counted as a failure")
	}
	ro.warmMu.Lock()
	drained := len(ro.warmQueue)
	ro.warmMu.Unlock()
	if drained != 0 {
		t.Fatalf("warmOnce left %d tasks queued", drained)
	}
}

// TestWarmingTransfersEntryEndToEnd is the warming acceptance test
// over real in-process replicas: a key's full walk cached on its HRW
// winner is transferred (through the JSON wire form) to its spill
// target, and the next spilled request is a zero-MAC cache hit whose
// logits are bitwise identical to the winner's cold walk.
func TestWarmingTransfersEntryEndToEnd(t *testing.T) {
	m := warmModel(41)
	var backs []Backend
	var servers []*serve.Server
	for _, name := range []string{"a", "b", "c"} {
		srv := newWarmServer(t, m)
		servers = append(servers, srv)
		backs = append(backs, &Local{Srv: srv, Name: name})
	}
	ro, err := NewRouter(RouterConfig{
		Backends: backs, Affinity: true, Warm: true,
		ProbeInterval: -1, WarmInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ro.Close)

	in := warmInput(7)
	key := cache.KeyOf(in)
	res1, err := ro.Submit(serve.Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Subnet != 3 || res1.CacheHit {
		t.Fatalf("cold walk answered subnet %d (hit=%v), want a full cold walk", res1.Subnet, res1.CacheHit)
	}

	// The HRW order is a pure function of the key and replica IDs:
	// weights descending give the winner and its deterministic spill
	// target (the replica a bounded-load overflow lands on).
	order := make([]int, len(ro.replicas))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && hrwWeight(uint64(key), ro.replicas[order[j]].id) > hrwWeight(uint64(key), ro.replicas[order[j-1]].id); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	winner, target := order[0], order[1]
	if got := servers[winner].Stats().Served; got != 1 {
		t.Fatalf("cold walk did not land on the key's HRW winner (winner served %d)", got)
	}

	// Submit returns when the answer is delivered; the worker publishes
	// the walk to its cache just after. Wait for the entry, not for luck.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := servers[winner].CachePeek(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the winner never published the cold walk to its cache")
		}
	}
	ro.noteSpill(uint64(key), ro.replicas[winner], ro.replicas[target])
	if got := ro.warmOnce(); got != 1 {
		t.Fatalf("warmOnce installed %d entries, want 1", got)
	}
	if snap := servers[target].Stats(); snap.CacheWarmed != 1 {
		t.Fatalf("spill target CacheWarmed = %d, want 1", snap.CacheWarmed)
	}
	st := ro.Stats()
	if st.WarmTransfers != 1 || st.WarmBytes <= 0 || st.WarmFailures != 0 {
		t.Fatalf("warm counters after one transfer: %+v", st)
	}

	// Overload the winner past the spill bound and resubmit: the
	// request lands on the warmed target and must answer from the
	// transferred entry — zero MACs, bitwise-identical logits.
	ro.replicas[winner].storeSnap(snap(30))
	res2, err := ro.Submit(serve.Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit || res2.MACs != 0 {
		t.Fatalf("spilled repeat after warming: hit=%v macs=%d, want a zero-MAC hit", res2.CacheHit, res2.MACs)
	}
	if len(res2.Logits) != len(res1.Logits) {
		t.Fatalf("logit width changed across the transfer: %d vs %d", len(res2.Logits), len(res1.Logits))
	}
	for i := range res1.Logits {
		if res1.Logits[i] != res2.Logits[i] {
			t.Fatalf("warmed hit logit[%d] = %v, cold walk = %v (wire transfer not bitwise)", i, res2.Logits[i], res1.Logits[i])
		}
	}
	if snap := servers[target].Stats(); snap.CacheHits != 1 {
		t.Fatalf("spill target CacheHits = %d, want 1 (the warmed entry must have served the hit)", snap.CacheHits)
	}
}

// TestWarmBudgetBoundsPass pins the per-replica byte budget: with a
// budget sized to exactly one entry, a pass holding two tasks for the
// same target installs one and drops the other (no failure counted —
// the next spill re-queues a still-hot key).
func TestWarmBudgetBoundsPass(t *testing.T) {
	m := warmModel(43)
	src := newWarmServer(t, m)
	dst := newWarmServer(t, m)
	srcB, dstB := &Local{Srv: src, Name: "src"}, &Local{Srv: dst, Name: "dst"}
	ro, err := NewRouter(RouterConfig{
		Backends: []Backend{srcB, dstB}, Affinity: true, Warm: true,
		ProbeInterval: -1, WarmInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ro.Close)

	in1, in2 := warmInput(11), warmInput(12)
	for _, in := range [][]float64{in1, in2} {
		if _, err := srcB.Submit(context.Background(), serve.Request{Input: in, Deadline: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := srcB.FetchCacheEntry(context.Background(), cache.KeyOf(in1))
	if err != nil {
		t.Fatal(err)
	}
	ro.cfg.WarmBudgetBytes = w.Bytes() // exactly one full-ladder entry

	ro.noteSpill(uint64(cache.KeyOf(in1)), ro.replicas[0], ro.replicas[1])
	ro.noteSpill(uint64(cache.KeyOf(in2)), ro.replicas[0], ro.replicas[1])
	if got := ro.warmOnce(); got != 1 {
		t.Fatalf("warmOnce under a one-entry budget installed %d, want 1", got)
	}
	if ro.warmFailures.Load() != 0 {
		t.Fatalf("budget drop counted as a failure")
	}
	if snap := dst.Stats(); snap.CacheWarmed != 1 {
		t.Fatalf("target CacheWarmed = %d, want 1", snap.CacheWarmed)
	}
}

// TestRemoteCacheTransfer pins the HTTP legs of CacheTransfer against
// a scripted replica: install POSTs the wire entry, fetch GETs it back
// byte-identically, a missing key maps to ErrNoEntry, and a broken
// replica maps to ErrTransport.
func TestRemoteCacheTransfer(t *testing.T) {
	var mu sync.Mutex
	store := map[string]CacheEntryWire{}
	fail := false
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/cache/entry" {
			http.NotFound(rw, req)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if fail {
			http.Error(rw, "boom", http.StatusInternalServerError)
			return
		}
		switch req.Method {
		case http.MethodGet:
			w, ok := store[req.URL.Query().Get("key")]
			if !ok {
				http.Error(rw, "no entry", http.StatusNotFound)
				return
			}
			json.NewEncoder(rw).Encode(w)
		case http.MethodPost:
			var w CacheEntryWire
			if err := json.NewDecoder(req.Body).Decode(&w); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			store[w.Key] = w
		}
	}))
	t.Cleanup(ts.Close)
	r := NewRemote(ts.URL)
	t.Cleanup(r.Close)
	ctx := context.Background()

	key := cache.Key(0xfedc_ba98_7654_3210)
	if _, err := r.FetchCacheEntry(ctx, key); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("missing key fetch: %v, want ErrNoEntry", err)
	}
	sent := CacheEntryWire{Key: FormatKey(key), Subnet: 2, Logits: []float64{0.25, -1.5, 3}}
	if err := r.InstallCacheEntry(ctx, sent); err != nil {
		t.Fatal(err)
	}
	got, err := r.FetchCacheEntry(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := json.Marshal(sent)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(sb, gb) {
		t.Fatalf("entry changed across the HTTP round trip:\nsent %s\ngot  %s", sb, gb)
	}

	mu.Lock()
	fail = true
	mu.Unlock()
	if _, err := r.FetchCacheEntry(ctx, key); !errors.Is(err, ErrTransport) {
		t.Fatalf("500 fetch: %v, want ErrTransport", err)
	}
	if err := r.InstallCacheEntry(ctx, sent); !errors.Is(err, ErrTransport) {
		t.Fatalf("500 install: %v, want ErrTransport", err)
	}
}
