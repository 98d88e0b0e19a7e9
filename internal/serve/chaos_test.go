package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steppingnet/internal/governor"
)

// TestChaosRandomizedLifecycles is the serving layer's chaos gate,
// run under -race by ci.sh on both GEMM backends. Each iteration
// draws a random server shape (workers, queue depth, batch size,
// priority classes, batch window, refresh loop on/off), slams it with
// a storm of concurrent submitters using randomized priorities and
// deadlines — the random MaxBatch and arrival jitter make every storm
// a mid-flight mix of lone and multi-request pops — closes the server
// at a random point *during* the storm,
// possibly from several goroutines at once, and then asserts the
// lifecycle contract:
//
//   - every Submit returned exactly once, with a well-formed answer
//     or a typed error (ErrClosed / ErrOverloaded) — nothing hangs,
//     nothing is answered twice;
//   - at quiescence Submitted = Served + Rejected, globally and per
//     class (post-Close submits count as neither), top-rung hits
//     answered by Submit itself included;
//   - the per-subnet histograms reconcile with the served counts;
//   - no goroutine survives Close (workers, former, refresh loop and
//     every engine are all released, exactly once; a double engine
//     release would panic or leak);
//   - Close is idempotent, including concurrently with itself.
func TestChaosRandomizedLifecycles(t *testing.T) {
	before := runtime.NumGoroutine()
	m := buildModel(50)

	iters := 6
	if testing.Short() {
		iters = 2
	}
	for iter := 0; iter < iters; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xC4A05 + iter)))
			cfg := Config{
				Model:           m,
				Subnets:         3,
				Workers:         1 + rng.Intn(3),
				QueueDepth:      4 + rng.Intn(29),
				MaxBatch:        1 + rng.Intn(4),
				PriorityClasses: 1 + rng.Intn(3),
				Calibration:     instantSteps(m, 3),
				DefaultDeadline: time.Hour,
			}
			if rng.Intn(2) == 1 {
				cfg.RefreshInterval = time.Millisecond
			}
			if rng.Intn(2) == 1 {
				cfg.ServeDelay = time.Duration(rng.Intn(2000)) * time.Microsecond
			}
			if rng.Intn(2) == 1 {
				// Arm the semantic cache, sometimes with a byte bound
				// tight enough to force mid-storm eviction churn. The
				// shared input means hits/resumes genuinely happen
				// concurrently with cold walks.
				cfg.CacheEntries = 1 + rng.Intn(8)
				if rng.Intn(2) == 1 {
					cfg.CacheBytes = int64(4096 + rng.Intn(1<<16))
				}
			}
			if rng.Intn(2) == 1 {
				// Arm the confidence early exit with a random threshold;
				// argmax safety is pinned elsewhere, here it must simply
				// never break a lifecycle invariant.
				cfg.ExitMargin = 0.1 + rng.Float64()
			}
			if rng.Intn(2) == 1 {
				// Arm the overload governor on a random prefix of the
				// classes with a deliberately twitchy clock: the storm
				// should drive real brownout transitions, and every
				// invariant below must hold regardless.
				cfg.SLOs = make([]governor.SLO, 1+rng.Intn(cfg.PriorityClasses))
				for c := range cfg.SLOs {
					cfg.SLOs[c] = governor.SLO{
						P99Target:  time.Duration(1+rng.Intn(5)) * time.Millisecond,
						MinHitRate: 0.9,
					}
				}
				cfg.ControlInterval = time.Duration(1+rng.Intn(3)) * time.Millisecond
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			in := inputVec(uint64(60+iter), srv.imgLen)
			const submitters = 24
			var (
				wg       sync.WaitGroup
				answered atomic.Int64
				rejected atomic.Int64
				closedN  atomic.Int64
			)
			deadlines := []time.Duration{0, time.Nanosecond, time.Millisecond, time.Hour}
			for i := 0; i < submitters; i++ {
				wg.Add(1)
				// Each submitter derives its own RNG: the shared one is
				// not safe across goroutines.
				sub := rand.New(rand.NewSource(int64(iter*1000 + i)))
				go func() {
					defer wg.Done()
					for k := 0; k < 8; k++ {
						res, err := srv.Submit(Request{
							Input:    in,
							Deadline: deadlines[sub.Intn(len(deadlines))],
							Priority: sub.Intn(5) - 1, // includes out-of-range values
						})
						switch {
						case err == nil:
							if res.Subnet < 1 || res.Subnet > 3 {
								t.Errorf("answered from subnet %d", res.Subnet)
							}
							if len(res.Logits) != m.Classes {
								t.Errorf("answer carries %d logits, want %d", len(res.Logits), m.Classes)
							}
							answered.Add(1)
						case errors.Is(err, ErrOverloaded):
							rejected.Add(1)
						case errors.Is(err, ErrClosed):
							closedN.Add(1)
						default:
							t.Errorf("unexpected Submit error: %v", err)
						}
					}
				}()
			}

			// Close mid-storm, sometimes from several goroutines at once.
			time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
			closers := 1 + rng.Intn(3)
			var cwg sync.WaitGroup
			for c := 0; c < closers; c++ {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					srv.Close()
				}()
			}
			wg.Wait()
			cwg.Wait()
			srv.Close() // idempotent after the fact

			if _, err := srv.Submit(Request{Input: in}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Submit after Close = %v, want ErrClosed", err)
			}
			if got := answered.Load() + rejected.Load() + closedN.Load(); got != submitters*8 {
				t.Fatalf("outcomes %d != submits %d (hang or double answer)", got, submitters*8)
			}

			snap := srv.Stats()
			if snap.Submitted != snap.Served+snap.Rejected {
				t.Fatalf("global invariant: submitted %d != served %d + rejected %d",
					snap.Submitted, snap.Served, snap.Rejected)
			}
			if snap.Served != answered.Load() || snap.Rejected != rejected.Load() {
				t.Fatalf("stats (%d served, %d rejected) disagree with observed (%d, %d)",
					snap.Served, snap.Rejected, answered.Load(), rejected.Load())
			}
			if snap.CacheEnabled != (cfg.CacheEntries > 0) {
				t.Fatalf("CacheEnabled=%v with CacheEntries=%d", snap.CacheEnabled, cfg.CacheEntries)
			}
			if !snap.CacheEnabled && (snap.CacheHits != 0 || snap.CacheResumes != 0 || snap.CacheEntries != 0) {
				t.Fatalf("cache-off server reported cache activity: %+v", snap)
			}
			if snap.CacheEnabled && snap.CacheEntries > cfg.CacheEntries {
				t.Fatalf("cache holds %d entries, bound %d", snap.CacheEntries, cfg.CacheEntries)
			}
			if snap.InlineHits > snap.CacheHits {
				t.Fatalf("%d hits answered before the queue out of %d hits", snap.InlineHits, snap.CacheHits)
			}
			if cfg.ExitMargin == 0 && snap.EarlyExits != 0 {
				t.Fatalf("exit-off server reported %d early exits", snap.EarlyExits)
			}
			var classServed, classRejected, histo int64
			for _, cs := range snap.Classes {
				if cs.Submitted != cs.Served+cs.Rejected {
					t.Fatalf("class %d invariant: %+v", cs.Priority, cs)
				}
				if cs.CacheHits+cs.CacheResumes > cs.Served || cs.EarlyExits > cs.Served {
					t.Fatalf("class %d cache/exit counters exceed served: %+v", cs.Priority, cs)
				}
				classServed += cs.Served
				classRejected += cs.Rejected
				for _, c := range cs.BySubnet {
					histo += c
				}
			}
			if classServed != snap.Served || classRejected != snap.Rejected {
				t.Fatalf("class breakdown (%d served, %d rejected) disagrees with globals (%d, %d)",
					classServed, classRejected, snap.Served, snap.Rejected)
			}
			if histo != snap.Served {
				t.Fatalf("per-class subnet histograms sum to %d, want %d", histo, snap.Served)
			}
		})
	}

	// Every goroutine the storms spawned — workers, formers, refresh
	// loops, engine shard workers — must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
