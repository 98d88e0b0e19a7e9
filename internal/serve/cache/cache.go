// Package cache implements the serving tier's semantic result cache:
// a bounded, concurrency-safe map from deterministic input hashes
// (KeyOf, version 2: a word-at-a-time fold, the same in every process
// of a cluster) to the widest ladder rung previously reached for that
// input, its logits, and the engine-visible per-layer state
// (infer.LadderState) needed to RESUME the walk from that rung. The
// anytime property is what makes the cache semantic rather than
// exact-match-only in value:
// a hit whose cached rung already satisfies the request's budget is a
// free answer, and a hit below the budget still converts the cached
// rungs into a head start — the worker imports the state and climbs
// from rung k instead of rung 0, bitwise-equivalent to the cold walk
// it replaced (TestResumeMatchesColdWalk).
//
// Entries are immutable after Put: readers share the returned pointer
// without copying, and writers publish strictly wider walks by
// inserting replacement entries. Eviction is LRU under two
// simultaneous bounds (entry count and total bytes), so cached engine
// states — the heavy part — cannot grow without limit.
//
// Nothing else removes an entry. An entry is a pure function of the
// input's bits and the weights, and a running process never changes
// its weights, so an entry cannot go stale: it leaves only when the
// LRU bounds push it out.
package cache

import (
	"math"
	"math/bits"
	"sync"

	"steppingnet/internal/infer"
)

// Key is a deterministic 64-bit hash of an input vector. Equal inputs
// hash equal across processes and runs (a fixed function of the
// IEEE-754 bit patterns — no per-process seed), so keys are stable
// enough to route on in a cluster, not just to look up locally.
type Key uint64

// keySeed starts the fold and keyMul steps it: the FNV-1a 64 offset
// basis and 2^64/φ, which is odd.
const (
	keySeed = 0xcbf29ce484222325
	keyMul  = 0x9e3779b97f4a7c15
)

// KeyOf hashes an input vector to its cache key (version 2): the
// element count, then the IEEE-754 bit pattern of each element in
// order, folded a 64-bit word per step — xor in, multiply by keyMul,
// rotate — and finished with the splitmix64 finalizer. Every step is a
// bijection of the state, so inputs differing in one element never
// collide. The rotate keeps two sign flips from cancelling (an odd
// multiplier leaves bit 63 in bit 63), and each word goes in xored with
// its own high half, so that no single flipped input bit is a single
// flipped state bit, which one flipped bit of the next element would
// undo. The count goes in first, so a prefix and its extension cannot
// collide trivially. Bitwise-equal inputs — and only the bit pattern
// matters, so -0 and +0 differ and equal NaN payloads match — always
// produce equal keys.
//
// The cluster router keys its rendezvous hashing on this same value,
// so repeats of an input land on the replica whose cache holds the
// walk. The construction is therefore part of the wire contract:
// deterministic across processes, pinned by the golden values in
// cache_test.go, and a router and its replicas must run the same
// version. A mixed cluster stays correct — each replica keys its own
// cache — and only loses affinity. (Version 1 was FNV-1a 64 over the
// same bytes, one at a time.)
func KeyOf(x []float64) Key {
	h := bits.RotateLeft64((keySeed^uint64(len(x)))*keyMul, 29)
	for _, f := range x {
		w := math.Float64bits(f)
		h = bits.RotateLeft64((h^(w^w>>32))*keyMul, 29)
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return Key(h ^ h>>31)
}

// Entry is one cached result: the widest rung a previous walk reached
// for this input, the logits that rung produced, and the ladder state
// to resume from. Entries are immutable once handed to Put — the
// cache shares them by pointer with concurrent readers.
type Entry struct {
	// Subnet is the rung the entry represents (≥ 1).
	Subnet int
	// Logits is the network output at Subnet, one value per class.
	Logits []float64
	// State resumes the walk: importing it into an engine and
	// stepping to s > Subnet computes only the missing units. Nil
	// marks a logits-only entry — what a walk that reached the top of
	// the ladder publishes, since nothing can climb from there; it
	// answers repeats but seeds no climb. A wider offer replaces the
	// entry whole, state included: a narrower state kept under
	// top-rung logits would be dead weight.
	State *infer.LadderState
}

// entryOverhead approximates the fixed per-entry bookkeeping cost
// (map slot, list element, headers) charged against MaxBytes on top
// of the tensor data, so a flood of tiny entries still hits the byte
// bound honestly.
const entryOverhead = 256

// bytes reports the entry's accounted footprint.
func (e *Entry) bytes() int64 {
	return int64(len(e.Logits))*8 + e.State.Bytes() + entryOverhead
}

// Config bounds a Cache. Zero values disable the respective bound,
// but the serving layer always sets both: cached ladder states are
// the dominant per-entry weight and must not grow without limit.
type Config struct {
	// MaxEntries caps the number of live entries (LRU evicts beyond
	// it). ≤ 0 means unbounded.
	MaxEntries int
	// MaxBytes caps the summed accounted footprint of live entries.
	// ≤ 0 means unbounded. A single entry larger than MaxBytes is
	// rejected by Put (storing it would immediately evict everything
	// including itself).
	MaxBytes int64
}

// Counters is a snapshot of the cache's monotonic event counters.
type Counters struct {
	// Inserts counts Puts that stored a new key.
	Inserts int64
	// Widens counts Puts that replaced an entry with a wider rung.
	Widens int64
	// Evictions counts entries the LRU bounds removed. An oversized
	// Put rejected outright is not an eviction (nothing stored was
	// removed), so Len == Inserts − Evictions always holds — an
	// invariant the fuzz target leans on.
	Evictions int64
}

// Stats is a coherent snapshot of the cache's gauges and counters,
// taken under one lock acquisition, so Len == Counters.Inserts −
// Counters.Evictions holds exactly even under concurrent churn.
type Stats struct {
	// Len is the number of entries.
	Len int
	// Bytes is the summed accounted footprint of the entries.
	Bytes int64
	// Counters is the monotonic event-counter snapshot.
	Counters Counters
}

// Cache is the bounded semantic result cache. All methods are safe
// for concurrent use; the zero value is not usable — construct with
// New.
type Cache struct {
	mu    sync.Mutex
	cfg   Config
	items map[Key]*node
	// Intrusive LRU list: head.next is most recently used, head.prev
	// least. A sentinel head keeps link/unlink branch-free.
	head  node
	bytes int64
	ctr   Counters
}

// node is one LRU slot. Entries travel by pointer and are immutable;
// only the links and the slot's identity mutate under the lock.
type node struct {
	key        Key
	entry      *Entry
	size       int64
	prev, next *node
}

// New builds an empty cache bounded by cfg.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, items: make(map[Key]*node)}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

// Lookup returns the entry for k and leaves the LRU order untouched.
// The returned entry is shared and immutable — callers must not
// mutate it. The serving layer looks entries up at admission and at
// batch formation, and calls Touch only for requests that actually
// reach an answer or a walk — a flood of requests that are then
// rejected downstream must not push live keys toward eviction.
func (c *Cache) Lookup(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		return nil, false
	}
	return n.entry, true
}

// Get is Lookup and Touch under one lock: it returns the entry for k
// and marks it most recently used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.entry, true
}

// Touch marks k most recently used if it is cached, and is otherwise
// a no-op. Pairs with Lookup: recency moves only when the looked-up
// request commits to using the entry.
func (c *Cache) Touch(k Key) { c.Get(k) }

// Put offers an entry for k and reports whether it was stored. An
// existing entry at an equal or wider rung wins (the offer is
// dropped — the cache keeps only the widest walk per key, and a
// narrower result adds nothing). A wider offer replaces the entry
// whole, its resume state included. Storing may evict
// least-recently-used entries to restore the bounds; an entry that
// alone exceeds MaxBytes is rejected without disturbing the rest.
func (c *Cache) Put(k Key, e *Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e == nil || e.Subnet < 1 {
		return false
	}
	size := e.bytes()
	if c.cfg.MaxBytes > 0 && size > c.cfg.MaxBytes {
		return false
	}
	n, ok := c.items[k]
	if ok {
		c.unlink(n)
		c.pushFront(n)
		if n.entry.Subnet >= e.Subnet {
			// Keep the wider (or equal) walk; the refreshed recency
			// stays — the key is demonstrably hot.
			return false
		}
		c.bytes += size - n.size
		n.entry, n.size = e, size
		c.ctr.Widens++
	} else {
		n = &node{key: k, entry: e, size: size}
		c.items[k] = n
		c.bytes += size
		c.pushFront(n)
		c.ctr.Inserts++
	}
	c.evictOver()
	return true
}

// evictOver drops least-recently-used entries until both bounds hold.
// Caller holds the lock.
func (c *Cache) evictOver() {
	for (c.cfg.MaxEntries > 0 && len(c.items) > c.cfg.MaxEntries) ||
		(c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes) {
		lru := c.head.prev
		if lru == &c.head {
			return
		}
		c.unlink(lru)
		delete(c.items, lru.key)
		c.bytes -= lru.size
		c.ctr.Evictions++
	}
}

// unlink removes n from the LRU list. Caller holds the lock.
func (c *Cache) unlink(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

// pushFront marks n most recently used. Caller holds the lock.
func (c *Cache) pushFront(n *node) {
	n.next = c.head.next
	n.prev = &c.head
	c.head.next.prev = n
	c.head.next = n
}

// Stats returns the gauges and counters as one coherent snapshot
// taken under a single lock acquisition.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Len: len(c.items), Bytes: c.bytes, Counters: c.ctr}
}
