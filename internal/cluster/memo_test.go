package cluster

import (
	"fmt"
	"testing"

	"steppingnet/internal/serve/cache"
)

// TestMemoSkipsKnownText pins the skip itself: the second decode of a
// body leaves the numbers unread and reports the key the first computed
// from them, whatever stands around the array; a nil memo (what
// UnmarshalJSON decodes with) never keys and never skips.
func TestMemoSkipsKnownText(t *testing.T) {
	memo := new(textMemo)
	var first, again, reordered, plain InferRequest
	in, err := first.decode([]byte(`{"input":[1,2.5,-3e0],"deadline_ms":4}`), nil, memo)
	if err != nil || !in.keyed || len(first.Input) != 3 || in.key != cache.KeyOf(first.Input) {
		t.Fatalf("first decode: input %v, keyed %v key %#x, err %v; want the parsed numbers and their key", first.Input, in.keyed, in.key, err)
	}
	for _, tc := range []struct {
		req  *InferRequest
		body string
	}{
		{&again, `{"input":[1,2.5,-3e0],"deadline_ms":4}`},
		{&reordered, ` {"priority":2, "x":["]"], "INPUT" : [1,2.5,-3e0] } `},
	} {
		got, err := tc.req.decode([]byte(tc.body), nil, memo)
		if err != nil || tc.req.Input != nil || !got.keyed || got.key != in.key || string(got.text) != `[1,2.5,-3e0]` {
			t.Fatalf("%s: input %v, keyed %v key %#x text %q, err %v; want the numbers skipped under key %#x",
				tc.body, tc.req.Input, got.keyed, got.key, got.text, err, in.key)
		}
	}
	if reordered.Priority != 2 || again.DeadlineMs != 4 {
		t.Fatalf("fields around a skipped array were lost: priority %d, deadline_ms %v", reordered.Priority, again.DeadlineMs)
	}
	// The same values written differently are another text.
	if got, err := plain.decode([]byte(`{"input":[1.0,2.5,-3]}`), nil, memo); err != nil || plain.Input == nil || got.key != in.key {
		t.Fatalf("respelled array: input %v key %#x err %v, want it parsed to the same key %#x", plain.Input, got.key, err, in.key)
	}
	plain = InferRequest{}
	if got, err := plain.decode([]byte(`{"input":[1,2.5,-3e0]}`), nil, nil); err != nil || got.keyed || len(plain.Input) != 3 {
		t.Fatalf("nil memo: input %v keyed %v err %v, want a plain parse", plain.Input, got.keyed, err)
	}
}

// TestMemoSlotsNeverAlias forces marks that differ in exactly one of
// digest, length and count into one set: each is found under its own
// key and none under another's, before and after the set overflows and
// starts overwriting.
func TestMemoSlotsNeverAlias(t *testing.T) {
	memo := new(textMemo)
	base := textMark{digest: 7, length: 100, count: 10}
	marks := []textMark{
		base,
		{digest: base.digest + memoSets, length: base.length, count: base.count},
		{digest: base.digest, length: base.length + 1, count: base.count},
		{digest: base.digest, length: base.length, count: base.count + 1},
	}
	if _, ok := memo.lookup(base); ok {
		t.Fatal("an empty memo knows a text")
	}
	memo.store(base, 1)
	for _, m := range marks[1:] {
		if k, ok := memo.lookup(m); ok {
			t.Fatalf("%+v found under key %d, stored was only %+v", m, k, base)
		}
	}
	for i, m := range marks {
		memo.store(m, cache.Key(i+1))
	}
	for i, m := range marks {
		if k, ok := memo.lookup(m); !ok || k != cache.Key(i+1) {
			t.Fatalf("%+v: key %d found %v, want %d", m, k, ok, i+1)
		}
	}
	// Overflow the set: the newest memoWays marks are resident under
	// their own keys, whatever they overwrote.
	for i := 0; i < 3*memoWays; i++ {
		memo.store(textMark{digest: base.digest + uint64(i+2)*memoSets, length: 50, count: 5}, cache.Key(100+i))
	}
	for i := 2 * memoWays; i < 3*memoWays; i++ {
		m := textMark{digest: base.digest + uint64(i+2)*memoSets, length: 50, count: 5}
		if k, ok := memo.lookup(m); !ok || k != cache.Key(100+i) {
			t.Fatalf("after overflow %+v: key %d found %v, want %d", m, k, ok, 100+i)
		}
	}
}

// TestMemoHoldsAWorkingSet pins the table's shape against the traffic
// it is for: 256 distinct texts — twice direct_repeat's and
// routed_repeat's hot sets — are all resident after one pass, for a
// hundred seeds of the digest.
func TestMemoHoldsAWorkingSet(t *testing.T) {
	texts := make([][]byte, 256)
	for i := range texts {
		texts[i] = []byte(fmt.Sprintf("[%d.5,-0.25,%de-3]", i, i*7919))
	}
	for seed := 0; seed < 100; seed++ {
		memo := new(textMemo) // seeds itself on first use
		marks := make([]textMark, len(texts))
		for i, text := range texts {
			var closer int
			if marks[i], closer = memo.mark(text, 0); closer != len(text) || marks[i].count != 3 {
				t.Fatalf("mark(%q) = %+v closing at %d", text, marks[i], closer)
			}
			memo.store(marks[i], cache.Key(i))
		}
		for i := range texts {
			if k, ok := memo.lookup(marks[i]); !ok || k != cache.Key(i) {
				t.Fatalf("seed %d: text %d of %d not resident after one pass (key %d, found %v)", seed, i, len(texts), k, ok)
			}
		}
	}
}
