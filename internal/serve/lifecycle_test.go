package serve

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steppingnet/internal/infer"
	"steppingnet/internal/serve/cache"
)

// fakeClock is the injectable cache clock the TTL tests advance by
// hand (safe for concurrent use — the chaos test advances it while
// workers stamp entries).
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestCacheTTLExpiresAtServeLevel pins the TTL lifecycle end to end:
// a repeat inside the TTL is a free cache hit, a repeat past it walks
// cold (the expired entry is evicted with Expired attribution, seen
// through the Snapshot), and the cold walk repopulates the key so the
// next repeat hits again.
func TestCacheTTLExpiresAtServeLevel(t *testing.T) {
	m := buildModel(451)
	clk := &fakeClock{}
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: 16,
		CacheTTL: time.Second, CacheNow: clk.now,
		Calibration: instantSteps(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	in := inputVec(452, m.InC*m.InH*m.InW)

	first, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(500 * time.Millisecond)
	inTTL, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !inTTL.CacheHit {
		t.Fatalf("repeat inside the TTL not served from cache: %+v", inTTL)
	}
	clk.advance(2 * time.Second)
	past, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if past.CacheHit || past.Resumed {
		t.Fatalf("repeat past the TTL used the stale entry: %+v", past)
	}
	if past.Subnet != first.Subnet || past.MACs == 0 {
		t.Fatalf("post-expiry walk %+v, want a full cold walk to %d", past, first.Subnet)
	}
	snap := sv.Stats()
	if snap.CacheExpired != 1 || snap.CacheInvalidated != 0 {
		t.Fatalf("expiry attribution Expired=%d Invalidated=%d, want 1/0", snap.CacheExpired, snap.CacheInvalidated)
	}
	if snap.CacheEvictions < 1 {
		t.Fatalf("expiry did not count as an eviction: %+v", snap)
	}
	// The cold walk restamped the key: live again.
	again, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("repeat after repopulation not served from cache: %+v", again)
	}
}

// TestCalibrationSwapInvalidatesCache pins the generation half of the
// lifecycle: when the refresh loop publishes a new latency model, the
// cache generation bumps, so a repeat of a previously cached input
// must walk cold (Invalidated attribution) instead of resuming from
// state observed under the old calibration — and the cold walk
// repopulates the key under the new generation.
func TestCalibrationSwapInvalidatesCache(t *testing.T) {
	m := buildModel(461)
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: 16,
		Calibration: instantSteps(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	in := inputVec(462, m.InC*m.InH*m.InW)

	if _, err := sv.Submit(Request{Input: in, Deadline: time.Hour}); err != nil {
		t.Fatal(err)
	}
	warm, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatalf("pre-swap repeat not served from cache: %+v", warm)
	}
	// Drive a calibration refresh exactly as the background loop
	// would: enough live observations that differ from the current
	// model, then one refreshCalibration call.
	for i := 0; i < refreshMinObs; i++ {
		sv.ref.observe(1, 123*time.Microsecond)
	}
	if !sv.refreshCalibration() {
		t.Fatal("refresh with fresh observations did not publish")
	}
	post, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if post.CacheHit || post.Resumed {
		t.Fatalf("post-swap repeat used pre-swap cache state: %+v", post)
	}
	snap := sv.Stats()
	if snap.CacheInvalidated != 1 || snap.CacheGeneration != 1 || snap.Refreshes != 1 {
		t.Fatalf("swap accounting Invalidated=%d Generation=%d Refreshes=%d, want 1/1/1",
			snap.CacheInvalidated, snap.CacheGeneration, snap.Refreshes)
	}
	// Repopulated under the new generation: hits again.
	again, err := sv.Submit(Request{Input: in, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("repeat after repopulation not served from cache: %+v", again)
	}
}

// TestSpeculativePreClimbWidensEntry pins the idle-window speculator:
// a hot key stuck below the top rung (its submits can never afford
// the deliberately unaffordable final step) is pre-climbed during
// idle, so a later identical tight-deadline submit is answered from
// the cache at the FULL ladder — bitwise equal to a cold top walk,
// with the pre-climb's MACs metered separately from request traffic.
func TestSpeculativePreClimbWidensEntry(t *testing.T) {
	m := buildModel(471)
	imgLen := m.InC * m.InH * m.InW
	coldOuts, coldMACs := coldLadder(t, m, inputVec(472, imgLen), 3)
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: 16,
		Speculate:   true,
		Calibration: slowTopStep(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	in := inputVec(472, imgLen)

	tight1, err := sv.Submit(Request{Input: in, Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if tight1.Subnet != 2 || tight1.CacheHit || tight1.Resumed {
		t.Fatalf("first tight submit %+v, want cold stop at 2", tight1)
	}
	// The repeat hits the rung-2 entry (still below its cap), resumes,
	// still cannot afford rung 3 — and seeds the candidate ring.
	tight2, err := sv.Submit(Request{Input: in, Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if tight2.Subnet != 2 || !tight2.Resumed {
		t.Fatalf("second tight submit %+v, want resumed answer at 2", tight2)
	}
	// Idle window: the speculator must finish the climb on its own.
	k := cache.KeyOf(in)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ent, ok := sv.CachePeek(k); ok && ent.Subnet == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("speculator never pre-climbed the hot key to the top (stats %+v)", sv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	tight3, err := sv.Submit(Request{Input: in, Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !tight3.CacheHit || tight3.Subnet != 3 || tight3.MACs != 0 {
		t.Fatalf("post-speculation repeat %+v, want a zero-MAC full-ladder cache hit", tight3)
	}
	for i, v := range tight3.Logits {
		if v != coldOuts[3][i] {
			t.Fatalf("speculated logit[%d]=%v, cold walk %v", i, v, coldOuts[3][i])
		}
	}
	snap := sv.Stats()
	if snap.Speculated != 1 || snap.SpeculativeMACs != coldMACs[3] {
		t.Fatalf("speculation meters Speculated=%d MACs=%d, want 1 step costing exactly %d",
			snap.Speculated, snap.SpeculativeMACs, coldMACs[3])
	}
	if want := tight1.MACs + tight2.MACs + tight3.MACs; snap.TotalMACs != want {
		t.Fatalf("TotalMACs %d includes speculative work, want request-only %d", snap.TotalMACs, want)
	}
}

// TestWarmInstallServesTransferredEntry pins the serve-side halves of
// affinity-aware warming: CachePeek exports an entry without touching
// hit/miss counters or recency; a walk that reached the top rung
// publishes logits alone (there is nothing to resume) and installing
// them on a second server makes the repeat a zero-MAC cache hit there;
// a walk stopped below the top publishes its state, which survives the
// wire round trip bitwise — the second server resumes from it to
// exactly the cold walk's logits. Both installs count in CacheWarmed.
func TestWarmInstallServesTransferredEntry(t *testing.T) {
	m := buildModel(481)
	mk := func() *Server {
		sv, err := New(Config{
			Model: m, Subnets: 3, Workers: 1, CacheEntries: 16,
			Calibration: slowTopStep(m, 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	// peek waits for a's worker to publish the walk it just answered
	// (Submit returns when the answer is delivered, just before).
	peek := func(k cache.Key) *cache.Entry {
		t.Helper()
		ent, ok := a.CachePeek(k)
		for deadline := time.Now().Add(5 * time.Second); !ok && time.Now().Before(deadline); ent, ok = a.CachePeek(k) {
			time.Sleep(time.Millisecond)
		}
		if !ok {
			t.Fatal("walk was never published to the cache")
		}
		return ent
	}
	const generous = 1000 * time.Hour

	full := inputVec(482, m.InC*m.InH*m.InW)
	first, err := a.Submit(Request{Input: full, Deadline: generous})
	if err != nil {
		t.Fatal(err)
	}
	top := peek(cache.KeyOf(full))
	if top.Subnet != 3 || first.Subnet != 3 || top.State != nil {
		t.Fatalf("top-rung entry %+v after answer at %d: want rung 3 and no state", top, first.Subnet)
	}
	if !b.WarmInstall(cache.KeyOf(full), &cache.Entry{Subnet: 3, Logits: append([]float64(nil), top.Logits...)}) {
		t.Fatal("WarmInstall rejected a fresh transferred entry")
	}
	repeat, err := b.Submit(Request{Input: full, Deadline: generous})
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.CacheHit || repeat.MACs != 0 || repeat.Subnet != 3 {
		t.Fatalf("warmed repeat %+v, want zero-MAC hit at 3", repeat)
	}
	for i, v := range repeat.Logits {
		if v != first.Logits[i] {
			t.Fatalf("warmed logit[%d]=%v, origin %v", i, v, first.Logits[i])
		}
	}

	part := inputVec(483, m.InC*m.InH*m.InW)
	coldOuts, coldMACs := coldLadder(t, m, part, 3)
	if tight, err := a.Submit(Request{Input: part, Deadline: 50 * time.Millisecond}); err != nil || tight.Subnet != 2 {
		t.Fatalf("tight submit: %+v, %v; want a stop at rung 2", tight, err)
	}
	ent := peek(cache.KeyOf(part))
	if ent.Subnet != 2 || ent.State == nil {
		t.Fatalf("entry of a walk stopped at rung 2: %+v, want its state", ent)
	}
	// Simulate the router's transfer: serialize the state to JSON and
	// rebuild it, exactly as the /cache/entry wire endpoint does.
	w, err := ent.State.Wire()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var ws infer.WireState
	if err := json.Unmarshal(blob, &ws); err != nil {
		t.Fatal(err)
	}
	st, err := ws.State()
	if err != nil {
		t.Fatal(err)
	}
	if !b.WarmInstall(cache.KeyOf(part), &cache.Entry{Subnet: 2, Logits: append([]float64(nil), ent.Logits...), State: st}) {
		t.Fatal("WarmInstall rejected a fresh resumable entry")
	}
	resumed, err := b.Submit(Request{Input: part, Deadline: generous})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || resumed.Subnet != 3 || resumed.MACs != coldMACs[3] {
		t.Fatalf("repeat over the transferred state %+v, want a resume to 3 costing %d MACs", resumed, coldMACs[3])
	}
	for i, v := range resumed.Logits {
		if v != coldOuts[3][i] {
			t.Fatalf("resumed logit[%d]=%v, cold walk %v", i, v, coldOuts[3][i])
		}
	}
	if snapB := b.Stats(); snapB.CacheWarmed != 2 || snapB.CacheHits != 1 || snapB.CacheResumes != 1 {
		t.Fatalf("warm target counters %+v, want CacheWarmed=2 CacheHits=1 CacheResumes=1", snapB)
	}
	// Peeking for export must not have counted traffic on the origin.
	if snapA := a.Stats(); snapA.CacheHits != 0 {
		t.Fatalf("CachePeek counted a hit on the origin: %+v", snapA)
	}
}

// TestChaosCacheStaleness hammers the full cache lifecycle under
// -race: concurrent submitters replay a small hot set with mixed
// deadlines while a churn goroutine advances the TTL clock and bumps
// the generation — TTL expiry, invalidation, speculation, resume and
// repopulation all interleave. Every answer must stay bitwise equal
// to the cold walk at its answered rung, and the cache's counter
// identity must hold at quiescence. Wired into the ci.sh chaos stage.
func TestChaosCacheStaleness(t *testing.T) {
	m := buildModel(491)
	imgLen := m.InC * m.InH * m.InW
	const nInputs = 4
	inputs := make([][]float64, nInputs)
	refs := make([][][]float64, nInputs)
	for i := range inputs {
		inputs[i] = inputVec(uint64(900+i), imgLen)
		refs[i], _ = coldLadder(t, m, inputs[i], 3)
	}
	clk := &fakeClock{}
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 2, CacheEntries: 8,
		CacheTTL: 50 * time.Millisecond, CacheNow: clk.now,
		Speculate: true, QueueDepth: 256,
		Calibration: slowTopStep(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.advance(time.Duration(rng.Intn(int(20 * time.Millisecond))))
			if rng.Intn(4) == 0 {
				sv.cache.BumpGeneration()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				idx := rng.Intn(nInputs)
				d := 50 * time.Millisecond
				if rng.Intn(2) == 0 {
					d = 1000 * time.Hour
				}
				res, err := sv.Submit(Request{Input: inputs[idx], Deadline: d})
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				if res.Subnet < 1 || res.Subnet > 3 {
					t.Errorf("answer at impossible rung %d", res.Subnet)
					return
				}
				want := refs[idx][res.Subnet]
				for j, v := range res.Logits {
					if v != want[j] {
						t.Errorf("input %d rung %d logit[%d]=%v, cold %v (hit=%v resumed=%v)",
							idx, res.Subnet, j, v, want[j], res.CacheHit, res.Resumed)
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	sv.Close()

	cs := sv.cache.Stats()
	if int64(cs.Len) != cs.Counters.Inserts-cs.Counters.Evictions {
		t.Fatalf("counter identity broken at quiescence: %+v", cs)
	}
	if cs.Counters.Expired+cs.Counters.Invalidated > cs.Counters.Evictions {
		t.Fatalf("attribution exceeds evictions: %+v", cs.Counters)
	}
	snap := sv.Stats()
	if snap.Submitted != snap.Served+snap.Rejected || snap.InlineHits > snap.CacheHits {
		t.Fatalf("invariant broken: submitted %d != served %d + rejected %d, or %d of %d hits answered before the queue",
			snap.Submitted, snap.Served, snap.Rejected, snap.InlineHits, snap.CacheHits)
	}
	t.Logf("%d served, %d cache hits, %d of them before the queue", snap.Served, snap.CacheHits, snap.InlineHits)
}
