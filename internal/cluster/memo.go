package cluster

import (
	"bytes"
	"hash/maphash"
	"sync"

	"steppingnet/internal/serve/cache"
)

// textMemo remembers, for input array texts the codec has read, the
// cache key of the values they spell, so that a repeat arriving as the
// same bytes is recognised in one pass over them and its numbers are
// not parsed again. text ↦ KeyOf(parse(text)) is a pure function: an
// entry is never wrong, nothing invalidates one, a full set overwrites;
// whether the key still has an answer is the cache's business.
//
// A fixed table of memoSets × memoWays 24-byte slots (96 KB), ready at
// its zero value. A slot matches on all of a textMark, whose digest is
// seeded per process: a chance match takes 2^-64 and the same length
// and count, and a forged one hands its forger another input's key and
// misleads no one else — nothing is stored under a key the memo
// supplied (submitText; ARCHITECTURE.md, "A repeat arrives as the same
// bytes").
type textMemo struct {
	seedOnce sync.Once
	seed     maphash.Seed

	mu     sync.Mutex
	victim uint32 // the way a full set overwrites next, round-robin
	sets   [memoSets][memoWays]memoSlot
}

const memoSets, memoWays = 512, 8

// textMark identifies an array text: its seeded digest, its length in
// bytes, and its element count as the commas say it. length 0 is no
// text.
type textMark struct {
	digest        uint64
	length, count uint32
}

type memoSlot struct {
	textMark
	key cache.Key
}

// mark locates the array opening at b[i] by the first closing bracket
// after it — an array of numbers has exactly one — and digests that
// range. closer is the offset past the bracket; it is -1, and the mark
// empty, when b[i] opens no array, nothing closes it, or m is nil.
func (m *textMemo) mark(b []byte, i int) (mark textMark, closer int) {
	if m == nil || i == len(b) || b[i] != '[' {
		return textMark{}, -1
	}
	n := bytes.IndexByte(b[i:], ']') + 1
	if n == 0 {
		return textMark{}, -1
	}
	text := b[i : i+n]
	m.seedOnce.Do(func() { m.seed = maphash.MakeSeed() })
	return textMark{maphash.Bytes(m.seed, text), uint32(n), uint32(bytes.Count(text, []byte{','}) + 1)}, i + n
}

// lookup returns the key stored for mark.
func (m *textMemo) lookup(mark textMark) (cache.Key, bool) {
	if mark.length == 0 {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, slot := range &m.sets[mark.digest%memoSets] {
		if slot.textMark == mark {
			return slot.key, true
		}
	}
	return 0, false
}

// store remembers key for mark: in the slot that holds mark already, a
// free one, or the set's next victim.
func (m *textMemo) store(mark textMark, key cache.Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := &m.sets[mark.digest%memoSets]
	at := -1
	for w := range set {
		if set[w].textMark == mark || set[w].length == 0 { // free slots follow the used ones
			at = w
			break
		}
	}
	if at < 0 {
		at = int(m.victim % memoWays)
		m.victim++
	}
	set[at] = memoSlot{mark, key}
}
