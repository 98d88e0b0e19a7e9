package serve

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"steppingnet/internal/serve/cache"
)

// TestTopRungHitAnsweredBeforeTheQueue pins where a top-rung hit is
// answered: by Submit itself. With the only worker held inside a walk
// (the ServeDelay seam), the queue full and a further cold request
// refused for it, a repeat of a cached input — sent with its floats, or
// keyed with nothing but its text — is still answered, at zero MACs and
// zero queue wait; a keyed request the cache cannot answer gets
// ErrInputNeeded with no counter moved; and after Close every one of
// them is ErrClosed.
func TestTopRungHitAnsweredBeforeTheQueue(t *testing.T) {
	m := buildModel(601)
	imgLen := m.InC * m.InH * m.InW
	const hold = 100 * time.Millisecond
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, QueueDepth: 1, CacheEntries: 16,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
		ServeDelay: hold,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	hot := inputVec(602, imgLen)
	want, _ := coldLadder(t, m, hot, 3)
	key := cache.KeyOf(hot)
	// Seed the cache with a real walk of the hot input.
	if res, err := sv.Submit(Request{Input: hot}); err != nil || res.Subnet != 3 {
		t.Fatalf("seeding walk: %+v, %v; want an answer at the top rung", res, err)
	}
	waitEntry(t, sv, hot, sv.n)
	seeded := sv.Stats().Submitted

	// One cold request into the worker, one into the batch former's
	// hand, one into the queue's only slot.
	var cold sync.WaitGroup
	for i := 0; i < 3; i++ {
		cold.Add(1)
		go func() {
			defer cold.Done()
			if _, err := sv.Submit(Request{Input: inputVec(uint64(610+i), imgLen)}); err != nil {
				t.Errorf("cold request %d: %v", i, err)
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			if snap := sv.Stats(); snap.Submitted == seeded+int64(i+1) && (snap.QueueLen == 0 || i == 2) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cold request %d never reached the server", i)
			}
		}
	}
	if _, err := sv.Submit(Request{Input: inputVec(620, imgLen)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("a fourth cold request = %v, want ErrOverloaded: the queue is not full", err)
	}

	text := []byte("[1]") // any text: Submit never reads it
	before := sv.Stats()
	for name, req := range map[string]Request{
		"with floats":   {Input: hot},
		"keyed, floats": {Input: hot, Key: key, Keyed: true},
		"keyed, text":   {InputJSON: text, Key: key, Keyed: true},
	} {
		res, err := sv.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.CacheHit || res.Subnet != 3 || res.MACs != 0 || res.QueueWait != 0 || res.Latency >= hold || !res.DeadlineMet {
			t.Fatalf("%s: %+v, want a zero-MAC top-rung hit that waited for nothing", name, res)
		}
		for j, v := range res.Logits {
			if math.Float64bits(v) != math.Float64bits(want[3][j]) {
				t.Fatalf("%s: logit[%d] = %v, cold walk %v", name, j, v, want[3][j])
			}
		}
	}
	mid := sv.Stats()
	if mid.QueueLen != 1 || mid.Served != before.Served+3 || mid.Submitted != before.Submitted+3 ||
		mid.CacheHits != before.CacheHits+3 || mid.InlineHits != before.InlineHits+3 || mid.InputsKnown != before.InputsKnown+1 {
		t.Fatalf("after three inline hits: %+v\nbefore: %+v", mid, before)
	}
	// Keyed, no floats, nothing cached under the key: the caller must parse.
	if _, err := sv.Submit(Request{InputJSON: text, Key: key + 1, Keyed: true}); err != ErrInputNeeded {
		t.Fatalf("keyed text under an uncached key = %v, want ErrInputNeeded", err)
	}
	if after := sv.Stats(); after.Submitted != mid.Submitted || after.Rejected != mid.Rejected {
		t.Fatalf("ErrInputNeeded moved a counter: %+v, was %+v", after, mid)
	}
	// Keyed without text or floats is a plain bad input.
	if _, err := sv.Submit(Request{Key: key, Keyed: true}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("keyed request with neither floats nor text = %v, want ErrBadInput", err)
	}

	cold.Wait()
	sv.Close()
	for name, req := range map[string]Request{
		"with floats": {Input: hot},
		"keyed, text": {InputJSON: text, Key: key, Keyed: true},
	} {
		if _, err := sv.Submit(req); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
	if snap := sv.Stats(); snap.Submitted != snap.Served+snap.Rejected {
		t.Fatalf("invariant: submitted %d != served %d + rejected %d", snap.Submitted, snap.Served, snap.Rejected)
	}
}

// TestKnownTextRewalksWhenTheCacheForgets is the memo's other half: a
// text is known for good, a cache entry is not. On first sight, and
// after a second input has pushed the entry out of a one-entry cache,
// a request that arrives keyed with only its text is asked for its
// floats, walks, and is answered bitwise as the cold walk — and is a
// zero-MAC inline hit again on the next repeat.
func TestKnownTextRewalksWhenTheCacheForgets(t *testing.T) {
	m := buildModel(631)
	imgLen := m.InC * m.InH * m.InW
	sv, err := New(Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: 1,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	in := inputVec(632, imgLen)
	want, coldMACs := coldLadder(t, m, in, 3)
	var walkMACs int64
	for _, mc := range coldMACs {
		walkMACs += mc
	}
	known := Request{InputJSON: []byte("[0]"), Key: cache.KeyOf(in), Keyed: true}

	for round, cause := range []string{"first sight", "eviction", "a second eviction"} {
		if round > 0 {
			other := inputVec(uint64(640+round), imgLen)
			if _, err := sv.Submit(Request{Input: other}); err != nil {
				t.Fatal(err)
			}
			waitEntry(t, sv, other, sv.n)
		}
		if _, err := sv.Submit(known); err != ErrInputNeeded {
			t.Fatalf("%s: keyed text = %v, want ErrInputNeeded", cause, err)
		}
		withFloats := known
		withFloats.Input = in
		res, err := sv.Submit(withFloats)
		if err != nil {
			t.Fatalf("%s: %v", cause, err)
		}
		if res.CacheHit || res.Resumed || res.Subnet != 3 || res.MACs != walkMACs {
			t.Fatalf("%s: %+v, want a cold walk to the top costing %d MACs", cause, res, walkMACs)
		}
		for j, v := range res.Logits {
			if math.Float64bits(v) != math.Float64bits(want[3][j]) {
				t.Fatalf("%s: re-walked logit[%d] = %v, cold walk %v", cause, j, v, want[3][j])
			}
		}
		waitEntry(t, sv, in, sv.n)
		if hit, err := sv.Submit(known); err != nil || !hit.CacheHit || hit.MACs != 0 {
			t.Fatalf("%s: repeat after the re-walk = %+v, %v, want an inline hit", cause, hit, err)
		}
	}
}

// TestServePathAllocations pins the serve path's allocations per
// answer: a cached hit is one, the caller's copy of the logits (it was
// six when a hit crossed the queue); a cold answer published to the
// cache stays nine, and one with the cache off six.
func TestServePathAllocations(t *testing.T) {
	m := buildModel(651)
	imgLen := m.InC * m.InH * m.InW
	for _, tc := range []struct {
		name         string
		cacheEntries int
		fresh        bool // a new input, hence a new key, per answer
		want         float64
	}{
		{"cached hit", 16, false, 1},
		{"cold, published", 16, true, 9},
		{"cold, cache off", 0, false, 6},
	} {
		sv, err := New(Config{
			Model: m, Subnets: 3, Workers: 1, CacheEntries: tc.cacheEntries,
			Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := inputVec(652, imgLen)
		submit := func() {
			if tc.fresh {
				in[0]++
			}
			if _, err := sv.Submit(Request{Input: in}); err != nil {
				t.Fatal(err)
			}
		}
		submit()
		if got := testing.AllocsPerRun(200, submit); got != tc.want {
			t.Errorf("%s: %v allocs per answer, want %v", tc.name, got, tc.want)
		}
		sv.Close()
	}
}
