package cluster

import "sort"

// Cache-affinity routing: rendezvous (highest-random-weight) hashing
// over the admitted replicas, keyed on cache.KeyOf of the request
// input. Each (key, replica) pair hashes to a weight and the request
// prefers replicas in descending weight order, which gives the two
// properties the per-replica semantic cache needs:
//
//   - stability: a key's order depends only on the key and the
//     replica identities, so repeats of an input keep landing on the
//     same replica — the one whose cache already holds the walk —
//     across routers and across restarts;
//   - minimal disruption: ejecting a replica reshuffles only the keys
//     that ranked it first (they fall to their second choice); every
//     other key's winner is untouched, and re-admission restores the
//     original mapping exactly.
//
// Pure HRW would let one hot key drown its winner while peers idle,
// so the ordering is load-bounded: candidates whose backlog score
// exceeds AffinitySpillFactor × the candidate mean are demoted behind
// the rest, preserving HRW order within both groups. The factor is ≥1
// and the least-loaded candidate never exceeds the mean, so a
// qualifying replica always remains in front.

// candidate is one admitted replica under consideration by pick, with
// its backlog score and (under affinity) its rendezvous weight.
type candidate struct {
	r      *replica
	score  float64
	weight uint64
}

// replicaID hashes a backend's target name to its stable rendezvous
// identity (FNV-1a 64). Depending only on the target string, every
// router instance over the same replica set derives the same HRW
// order for a key.
func replicaID(target string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(target); i++ {
		h ^= uint64(target[i])
		h *= fnvPrime64
	}
	return h
}

// fnvOffset64 and fnvPrime64 are the standard FNV-1a 64-bit
// parameters.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// hrwWeight is the rendezvous weight of (key, replica id): a
// splitmix64 finalizer over their XOR. The finalizer's avalanche
// makes the per-replica weights of one key effectively independent,
// which is what gives HRW its even key spread and minimal-disruption
// property.
func hrwWeight(key, id uint64) uint64 {
	x := key ^ id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// orderByAffinity reorders cands in place into rendezvous order with
// the bounded-load spill applied: descending HRW weight, with
// candidates whose backlog score exceeds spillFactor × the candidate
// mean demoted behind the rest (HRW order preserved within both
// groups). Returns the HRW-first replica — the key's affinity choice
// before any load consideration — and whether the spill demoted it.
// cands must be non-empty; spillFactor is ≥ 1 by config validation.
func orderByAffinity(cands []candidate, spillFactor float64) (hrwFirst *replica, demoted bool) {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].weight > cands[j].weight })
	hrwFirst = cands[0].r
	if len(cands) < 2 {
		return hrwFirst, false
	}
	var sum float64
	for _, c := range cands {
		sum += c.score
	}
	limit := spillFactor * sum / float64(len(cands))
	over := make([]candidate, 0, len(cands))
	keep := cands[:0]
	for _, c := range cands {
		if c.score > limit {
			over = append(over, c)
		} else {
			keep = append(keep, c)
		}
	}
	if len(over) == 0 {
		return hrwFirst, false
	}
	demoted = over[0].r == hrwFirst
	copy(cands[len(keep):], over)
	return hrwFirst, demoted
}
