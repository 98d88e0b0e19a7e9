package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestChaosCacheStaleness hammers the full cache lifecycle under
// -race: concurrent submitters replay a small hot set with mixed
// deadlines while a churn goroutine advances the TTL clock and bumps
// the generation — TTL expiry, invalidation, resume and repopulation
// all interleave. Every answer must stay bitwise equal
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
		QueueDepth:  256,
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
