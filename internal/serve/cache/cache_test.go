package cache

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"steppingnet/internal/infer"
	"steppingnet/internal/tensor"
)

// entry builds a logits-only entry at the given rung with a synthetic
// state of stateFloats float64s, so byte accounting is exercised
// without a real engine.
func entry(subnet, stateFloats int) *Entry {
	e := &Entry{Subnet: subnet, Logits: make([]float64, 5)}
	if stateFloats > 0 {
		e.State = &infer.LadderState{
			Subnet: subnet,
			In:     []int{1, 1, 1, 1},
			Layers: []*tensor.Tensor{tensor.New(1, stateFloats)},
		}
	}
	return e
}

// TestKeyDeterminism pins the hash contract: equal inputs hash equal,
// the hash covers every element and the length, and the bit pattern —
// not the numeric value — is what is hashed (-0 vs +0 differ, equal
// NaN payloads match). The exact values are also pinned so the key
// stays stable across processes and releases: a silent hash change
// would orphan every routed cache in a cluster.
func TestKeyDeterminism(t *testing.T) {
	x := []float64{1.5, -2.25, 0, 3e-9}
	if KeyOf(x) != KeyOf(append([]float64(nil), x...)) {
		t.Fatal("equal inputs hash differently")
	}
	y := append([]float64(nil), x...)
	y[3] = math.Nextafter(y[3], 1)
	if KeyOf(x) == KeyOf(y) {
		t.Fatal("one-ulp change did not change the key")
	}
	if KeyOf(x) == KeyOf(x[:3]) {
		t.Fatal("prefix hashes equal to full input")
	}
	if KeyOf([]float64{0}) == KeyOf([]float64{math.Copysign(0, -1)}) {
		t.Fatal("+0 and -0 should hash differently (bit-pattern hash)")
	}
	nan1 := math.Float64frombits(0x7ff8000000000001)
	if KeyOf([]float64{nan1}) != KeyOf([]float64{math.Float64frombits(0x7ff8000000000001)}) {
		t.Fatal("equal NaN payloads should hash equal")
	}
	// Pinned values, KeyOf v2 (word-at-a-time fold; v1 was bytewise
	// FNV-1a and read 0xa8c7f832281a39c5 for nil): recomputing these on
	// any platform must agree, and a router and its replicas must.
	for _, g := range []struct {
		in   []float64
		want Key
	}{
		{nil, 0x357cd75dbee30124},
		{[]float64{1}, 0x80f7b6034520b3c2},
		{x, 0xf77e082cb406cf4d},
	} {
		if got := KeyOf(g.in); got != g.want {
			t.Fatalf("KeyOf(%v) = %#x, want %#x", g.in, got, g.want)
		}
	}
}

// TestKeyOfV2 holds the word-at-a-time fold to what the bytewise hash
// gave for free: the input, each of its single-bit flips and each pair
// of sign flips among its first 64 elements all get keys of their own,
// and a flipped bit changes about half the key. Two traps sit here. A
// plain fold h = (h ^ w) * p keeps bit 63 in bit 63, so flipping the
// sign of any two elements cancels: hence the rotate. And with the
// rotate alone a sign flip is one flipped state bit, which the same
// bit of the next element flips back: hence each word goes in xored
// with its high half.
func TestKeyOfV2(t *testing.T) {
	x := make([]float64, 768)
	r := tensor.NewRNG(7)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	base := KeyOf(x)
	seen := map[Key]string{base: "the input itself"}
	note := func(what string, args ...int) Key {
		k := KeyOf(x)
		if prev, dup := seen[k]; dup {
			t.Fatalf("flipping %s %v collides with %s", what, args, prev)
		}
		seen[k] = fmt.Sprint(what, args)
		return k
	}
	flip := func(i, bit int) { x[i] = math.Float64frombits(math.Float64bits(x[i]) ^ 1<<bit) }

	changed := 0
	for i := range x {
		for bit := 0; bit < 64; bit++ {
			flip(i, bit)
			changed += bits.OnesCount64(uint64(note("bit", i, bit) ^ base))
			flip(i, bit)
		}
	}
	if avg := float64(changed) / float64(len(x)*64); avg < 24 || avg > 40 {
		t.Fatalf("a flipped input bit changes %.2f output bits on average, want 32 ± 8", avg)
	}
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			flip(i, 63)
			flip(j, 63)
			note("signs", i, j)
			flip(i, 63)
			flip(j, 63)
		}
	}
	if KeyOf(x) != base {
		t.Fatal("the flips were not undone")
	}
}

// TestWidestRungWins pins the replacement policy: a Put at a narrower
// or equal rung is dropped, a wider one replaces, and byte accounting
// follows the live entry.
func TestWidestRungWins(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxBytes: 1 << 20})
	k := KeyOf([]float64{42})
	if !c.Put(k, entry(2, 64)) {
		t.Fatal("first Put should store")
	}
	if c.Put(k, entry(1, 64)) {
		t.Fatal("narrower rung should be dropped")
	}
	if c.Put(k, entry(2, 64)) {
		t.Fatal("equal rung should be dropped")
	}
	if !c.Put(k, entry(3, 128)) {
		t.Fatal("wider rung should replace")
	}
	e, ok := c.Lookup(k)
	if !ok || e.Subnet != 3 {
		t.Fatalf("Lookup returned %+v, want subnet 3", e)
	}
	st := c.Stats()
	if st.Counters.Inserts != 1 || st.Counters.Widens != 1 {
		t.Fatalf("counters %+v, want 1 insert 1 widen", st.Counters)
	}
	if st.Len != 1 {
		t.Fatalf("Len %d, want 1", st.Len)
	}
	if want := entry(3, 128).bytes(); st.Bytes != want {
		t.Fatalf("Bytes %d, want %d (the live entry only)", st.Bytes, want)
	}
}

// TestLRUEviction pins the eviction order (least recently USED, where
// Touch refreshes recency) and both bounds.
func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf([]float64{float64(i)})
	}
	c.Put(keys[0], entry(1, 16))
	c.Put(keys[1], entry(1, 16))
	c.Put(keys[2], entry(1, 16))
	c.Touch(keys[0]) // refresh key 0: key 1 is now LRU
	c.Put(keys[3], entry(1, 16))
	if _, ok := c.Lookup(keys[1]); ok {
		t.Fatal("key 1 should have been evicted (LRU)")
	}
	for _, k := range []Key{keys[0], keys[2], keys[3]} {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("key %#x should be live", k)
		}
	}
	if ev := c.Stats().Counters.Evictions; ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}

	// Byte bound: one big entry evicts several small ones.
	small := entry(1, 16).bytes()
	cb := New(Config{MaxEntries: 100, MaxBytes: 4*small + entry(1, 16).bytes()})
	for i := 0; i < 4; i++ {
		cb.Put(KeyOf([]float64{10, float64(i)}), entry(1, 16))
	}
	big := entry(1, int(3*small/8))
	if !cb.Put(KeyOf([]float64{99}), big) {
		t.Fatal("big entry should store after evictions")
	}
	if b := cb.Stats().Bytes; b > cb.cfg.MaxBytes {
		t.Fatalf("byte bound violated: %d > %d", b, cb.cfg.MaxBytes)
	}
	if _, ok := cb.Lookup(KeyOf([]float64{99})); !ok {
		t.Fatal("big entry should be live")
	}

	// An entry alone exceeding MaxBytes is rejected without
	// disturbing the live set.
	before := cb.Stats()
	if cb.Put(KeyOf([]float64{7}), entry(1, 1<<20)) {
		t.Fatal("oversized entry should be rejected")
	}
	if cb.Stats() != before {
		t.Fatal("oversized Put disturbed the live set")
	}
}

// TestWidenDropsStaleState pins what a logits-only offer does to a
// resumable entry: a walk that reached the top rung publishes logits
// alone, and the narrower entry's state — which no request can use any
// more — must go with the entry it belonged to, not ride along as dead
// weight. Byte accounting must follow.
func TestWidenDropsStaleState(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxBytes: 1 << 20})
	k := KeyOf([]float64{7})
	if !c.Put(k, entry(2, 64)) { // resumable at rung 2
		t.Fatal("first Put should store")
	}
	wide := entry(3, 0) // logits-only at rung 3
	if wide.State != nil {
		t.Fatal("test setup: wide offer should be logits-only")
	}
	if !c.Put(k, wide) {
		t.Fatal("wider offer should replace")
	}
	e, ok := c.Lookup(k)
	if !ok || e != wide {
		t.Fatalf("Lookup returned %+v, want the rung-3 offer itself", e)
	}
	if b := c.Stats().Bytes; b != wide.bytes() {
		t.Fatalf("Bytes %d, want the logits-only footprint %d", b, wide.bytes())
	}
	// A wider offer that carries its own state installs it.
	wider := entry(4, 32)
	if !c.Put(k, wider) {
		t.Fatal("wider resumable offer should replace")
	}
	if e, _ := c.Lookup(k); e.State != wider.State {
		t.Fatal("resumable widen should install the new state")
	}
}

// TestLookupTouchRecency pins the recency split the serving layer
// depends on: Lookup does not move the LRU order (doomed requests
// cannot churn live keys), Touch does, and Get is both.
func TestLookupTouchRecency(t *testing.T) {
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf([]float64{float64(i)})
		if i < 3 {
			c.Put(keys[i], entry(1, 16))
		}
	}
	// Lookup key 0 (oldest) — recency must NOT refresh, so the next
	// insert still evicts key 0.
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("Lookup should find key 0")
	}
	c.Put(keys[3], entry(1, 16))
	if _, ok := c.Lookup(keys[0]); ok {
		t.Fatal("Lookup refreshed recency: key 0 survived, key 1 evicted")
	}
	// Rebuild; Touch key 0 — now it must survive.
	c = New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		c.Put(keys[i], entry(1, 16))
	}
	c.Touch(keys[0])
	c.Put(keys[3], entry(1, 16))
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("Touch did not refresh recency: key 0 evicted")
	}
	if _, ok := c.Lookup(keys[1]); ok {
		t.Fatal("key 1 should be the LRU victim after Touch(key 0)")
	}
	// Get moves recency too: key 2 is now the oldest, until Get
	// refreshes it.
	if e, ok := c.Get(keys[2]); !ok || e.Subnet != 1 {
		t.Fatalf("Get returned %+v, %v, want the rung-1 entry", e, ok)
	}
	c.Put(keys[1], entry(1, 16))
	if _, ok := c.Lookup(keys[2]); !ok {
		t.Fatal("Get did not refresh recency: key 2 evicted")
	}
	if _, ok := c.Lookup(keys[0]); ok {
		t.Fatal("key 0 should be the LRU victim after Get(key 2)")
	}
}

// TestUnboundedConfig pins that zero bounds mean unbounded (the
// library default; the serving layer always sets both).
func TestUnboundedConfig(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 100; i++ {
		c.Put(KeyOf([]float64{float64(i)}), entry(1, 8))
	}
	if st := c.Stats(); st.Len != 100 || st.Counters.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: len %d, evictions %d", st.Len, st.Counters.Evictions)
	}
}
