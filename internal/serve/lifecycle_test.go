package serve

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestRefreshLeavesTheCacheAlone pins that a calibration refresh
// publishes a new latency model and touches nothing else: a cached walk
// is a pure function of the input and the weights, so a top-rung entry
// cached before the refresh still answers its input before the queue
// after it — no walk runs — with the cold walk's logits bit for bit.
func TestRefreshLeavesTheCacheAlone(t *testing.T) {
	m := buildModel(461)
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: 16,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	in := inputVec(462, m.InC*m.InH*m.InW)
	want, _ := coldLadder(t, m, in, 3)
	if res, err := sv.Submit(Request{Input: in}); err != nil || res.Subnet != 3 {
		t.Fatalf("seeding walk: %+v, %v; want an answer at the top rung", res, err)
	}
	waitEntry(t, sv, in, sv.n)

	// Drive a refresh exactly as the background loop would: enough
	// live observations that differ from the current model, then one
	// refreshCalibration call.
	old := sv.lat.Load().StepTime[0]
	for i := 0; i < refreshMinObs; i++ {
		sv.ref.observe(1, 123*time.Microsecond)
	}
	if !sv.refreshCalibration() || sv.lat.Load().StepTime[0] == old {
		t.Fatal("refresh with fresh observations did not publish a changed model")
	}

	before := sv.Stats()
	res, err := sv.Submit(Request{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	after := sv.Stats()
	if !res.CacheHit || res.Resumed || res.Subnet != 3 || res.MACs != 0 {
		t.Fatalf("repeat after the refresh: %+v, want a zero-MAC top-rung hit", res)
	}
	if after.InlineHits != before.InlineHits+1 || after.TotalMACs != before.TotalMACs || after.Refreshes != 1 {
		t.Fatalf("after the refresh: %d inline hits (was %d), %d MACs (was %d), %d refreshes; want one more inline hit, no walk, one refresh",
			after.InlineHits, before.InlineHits, after.TotalMACs, before.TotalMACs, after.Refreshes)
	}
	for j, v := range res.Logits {
		if math.Float64bits(v) != math.Float64bits(want[3][j]) {
			t.Fatalf("logit[%d] = %v, cold walk %v", j, v, want[3][j])
		}
	}
}

// TestChaosCacheStaleness hammers the cache under -race: concurrent
// submitters replay four inputs through a three-entry cache with mixed
// deadlines, so LRU eviction, narrow publishes, resumes, widens and
// repopulation all interleave. No answer may be stale: each must stay
// bitwise equal to the cold walk at its answered rung, and the
// cache's counter identity must hold at quiescence. Wired into the
// ci.sh chaos stage.
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
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 2, CacheEntries: nInputs - 1,
		QueueDepth:  256,
		Calibration: slowTopStep(m, 3),
	})
	if err != nil {
		t.Fatal(err)
	}

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
	sv.Close()

	cs := sv.cache.Stats()
	if int64(cs.Len) != cs.Counters.Inserts-cs.Counters.Evictions || cs.Counters.Evictions == 0 {
		t.Fatalf("counter identity broken at quiescence, or nothing was evicted: %+v", cs)
	}
	snap := sv.Stats()
	if snap.Submitted != snap.Served+snap.Rejected || snap.InlineHits > snap.CacheHits {
		t.Fatalf("invariant broken: submitted %d != served %d + rejected %d, or %d of %d hits answered before the queue",
			snap.Submitted, snap.Served, snap.Rejected, snap.InlineHits, snap.CacheHits)
	}
	t.Logf("%d served, %d cache hits, %d of them before the queue", snap.Served, snap.CacheHits, snap.InlineHits)
}
