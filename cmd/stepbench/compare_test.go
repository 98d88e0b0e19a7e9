package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// healthyResults is a bench file every rule passes with room: each
// relation's subject sits well inside its bound, the zero-alloc entries
// allocate nothing, and the loopback entries allocate what a real run
// does.
func healthyResults() map[string]benchResult {
	ns := func(v int64) benchResult { return benchResult{NsPerOp: v} }
	r := map[string]benchResult{
		"forward_lenet3c1l_b1":      ns(200_000),
		"anytime_walk_lenet3c1l_b1": ns(100_000),
		"anytime_walk_lenet3c1l":    ns(400_000),
		"forward_vgg16_b1":          ns(3_000_000),
		"anytime_walk_vgg16_b1":     ns(1_000_000),
		"rung_gemm_4x27x256":        ns(1000),
		"rung_gemm_1x27x256":        ns(500),
		"wire_parsefloat_768":       ns(50_000),
		"wire_decode_768":           ns(15_000),
		"wire_known_768":            ns(2000),
		"cache_keyof_768":           ns(1000),
		"http_b1_empty":             {NsPerOp: 40_000, AllocsPerOp: 76, BytesPerOp: 18_000},
		"http_b1_cached":            {NsPerOp: 45_000, AllocsPerOp: 92, BytesPerOp: 20_000},
		"route_b1_cached":           {NsPerOp: 90_000, AllocsPerOp: 143, BytesPerOp: 24_000},
		"matmul64":                  {NsPerOp: 24_000, AllocsPerOp: 3, BytesPerOp: 32_832},
		"serve_b1_cached_resume":    {NsPerOp: 5000, AllocsPerOp: 1, BytesPerOp: 80},
		"serve_b1_deadline":         {NsPerOp: 105_000, AllocsPerOp: 6, BytesPerOp: 517},
	}
	return r
}

func baseline(results map[string]benchResult) *benchBaseline {
	return &benchBaseline{NumCPU: 2, MaxProcs: 2, Backend: "avx2", Results: results}
}

// TestCompareRules holds each rule of the gate at its edge: every case
// changes the healthy file so that one rule is just met or just broken,
// and names the failures it must produce. A factor moved, a term
// dropped or a check removed turns one of the pairs the wrong way.
func TestCompareRules(t *testing.T) {
	type edit func(old, new *benchBaseline)
	set := func(name string, f func(*benchResult)) edit {
		return func(_, n *benchBaseline) {
			r := n.Results[name]
			f(&r)
			n.Results[name] = r
		}
	}
	// nsOf moves an entry in both files, so that only the relations read
	// it; nsNew moves it in the new file alone, for the ns/op gate.
	nsNew := func(name string, v int64) edit { return set(name, func(r *benchResult) { r.NsPerOp = v }) }
	nsOf := func(name string, v int64) edit {
		return func(o, n *benchBaseline) {
			nsNew(name, v)(o, o)
			nsNew(name, v)(o, n)
		}
	}
	cases := []struct {
		name   string
		edits  []edit
		strict bool
		fail   []string // a substring of each failure, in order; none for a pass
	}{
		{name: "healthy"},

		// A plain ratio: the one-row rung panel against the four-row one.
		{name: "ratio met", edits: []edit{nsOf("rung_gemm_1x27x256", 600)}},
		{name: "ratio broken", edits: []edit{nsOf("rung_gemm_1x27x256", 601)}, fail: []string{"rung_gemm_1x27x256 (601 ns/op) exceeds 0.60 × rung_gemm_4x27x256"}},
		{name: "walk against forward", edits: []edit{nsOf("anytime_walk_lenet3c1l_b1", 220_001), nsOf("anytime_walk_lenet3c1l", 800_000)}, fail: []string{"anytime_walk_lenet3c1l_b1 (220001 ns/op) exceeds 1.10 × forward_lenet3c1l_b1"}},
		{name: "walk against forward, VGG", edits: []edit{nsOf("anytime_walk_vgg16_b1", 3_300_001)}, fail: []string{"anytime_walk_vgg16_b1 (3300001 ns/op) exceeds 1.10 × forward_vgg16_b1"}},

		// The served paths against the walk: a resume from a cached rung
		// at 0.15 of it, a deadline answer at the walk plus 15 µs.
		{name: "resume met", edits: []edit{nsOf("serve_b1_cached_resume", 15_000)}},
		{name: "resume broken", edits: []edit{nsOf("serve_b1_cached_resume", 15_001)}, fail: []string{"serve_b1_cached_resume (15001 ns/op) exceeds 0.15 × anytime_walk_lenet3c1l_b1 (100000 ns/op)"}},
		{name: "slack ns met", edits: []edit{nsOf("serve_b1_deadline", 115_000)}},
		{name: "slack ns broken", edits: []edit{nsOf("serve_b1_deadline", 115_001)}, fail: []string{"serve_b1_deadline (115001 ns/op) exceeds 1.00 × anytime_walk_lenet3c1l_b1 (100000 ns/op) + 15000 ns"}},

		// The codec, priced in strconv's time.
		{name: "decode met", edits: []edit{nsOf("wire_decode_768", 17_500)}},
		{name: "decode broken", edits: []edit{nsOf("wire_decode_768", 17_501)}, fail: []string{"wire_decode_768 (17501 ns/op) exceeds 0.35 × wire_parsefloat_768"}},
		{name: "byte-at-a-time decode", edits: []edit{nsOf("wire_decode_768", 23_500)}, fail: []string{"wire_decode_768"}},
		{name: "known text met", edits: []edit{nsOf("wire_known_768", 3500)}},
		{name: "known text broken", edits: []edit{nsOf("wire_known_768", 3501)}, fail: []string{"wire_known_768 (3501 ns/op) exceeds 0.07 × wire_parsefloat_768"}},
		// A faster decode leaves the known-text and cached-hit bars where
		// strconv puts them.
		{name: "faster decode moves no bar", edits: []edit{nsOf("wire_decode_768", 5000), nsOf("wire_known_768", 3500), nsOf("http_b1_cached", 54_000)}},
		{name: "keyof broken", edits: []edit{nsOf("cache_keyof_768", 2501)}, fail: []string{"cache_keyof_768"}},

		// The plus term: the empty exchange plus 0.28 of strconv.
		{name: "plus met", edits: []edit{nsOf("http_b1_cached", 54_000)}},
		{name: "plus broken", edits: []edit{nsOf("http_b1_cached", 54_001)}, fail: []string{"http_b1_cached (54001 ns/op) exceeds 1.00 × http_b1_empty (40000 ns/op) + 0.28 × wire_parsefloat_768 (50000 ns/op)"}},

		// slackBytes: bytes/op, the factor times the reference plus 8 KiB.
		{name: "slack met", edits: []edit{set("route_b1_cached", func(r *benchResult) { r.BytesPerOp = 20_000 + 8<<10 })}},
		{name: "slack broken", edits: []edit{set("route_b1_cached", func(r *benchResult) { r.BytesPerOp = 20_000 + 8<<10 + 1 })}, fail: []string{"route_b1_cached (28193 B/op) exceeds 1.00 × http_b1_cached (20000 B/op) + 8192 B"}},
		{name: "routed hit in ns", edits: []edit{nsOf("route_b1_cached", 112_501)}, fail: []string{"route_b1_cached (112501 ns/op) exceeds 2.50 × http_b1_cached"}},

		// minCPU / maxCPU: the batch-8 walk at 7 × the batch-1 walk breaks
		// the two-core bar (6 ×) and meets the one-core one (8.4 ×), and
		// gomaxprocs counts when it is the fewer.
		{name: "two cores, batch broken", edits: []edit{nsOf("anytime_walk_lenet3c1l", 700_000)}, fail: []string{"anytime_walk_lenet3c1l (700000 ns/op) exceeds 6.00 ×"}},
		{name: "two cores, batch met", edits: []edit{nsOf("anytime_walk_lenet3c1l", 600_000)}},
		{name: "two cores, one-core bar unread", edits: []edit{nsOf("anytime_walk_lenet3c1l", 900_000)}, fail: []string{"anytime_walk_lenet3c1l (900000 ns/op) exceeds 6.00 ×"}},
		{name: "one core, batch met", edits: []edit{nsOf("anytime_walk_lenet3c1l", 700_000), func(_, n *benchBaseline) { n.NumCPU, n.MaxProcs = 1, 1 }}},
		{name: "one proc of two cores", edits: []edit{nsOf("anytime_walk_lenet3c1l", 840_000), func(_, n *benchBaseline) { n.MaxProcs = 1 }}},
		{name: "one core, batch broken", edits: []edit{nsOf("anytime_walk_lenet3c1l", 840_001), func(_, n *benchBaseline) { n.NumCPU, n.MaxProcs = 1, 1 }}, fail: []string{"anytime_walk_lenet3c1l (840001 ns/op) exceeds 8.40 ×"}},

		// Allocations: none may appear on a zero-alloc entry, a capped entry
		// may not grow, and other allocating entries are only reported.
		{name: "allocs on a zero-alloc path", edits: []edit{set("wire_decode_768", func(r *benchResult) { r.AllocsPerOp = 1 })}, fail: []string{"wire_decode_768: allocs/op grew 0 -> 1"}},
		{name: "capped path grows", edits: []edit{set("http_b1_cached", func(r *benchResult) { r.AllocsPerOp = 93 })}, fail: []string{"http_b1_cached: allocs/op grew 92 -> 93 past its cap"}},
		{name: "capped path shrinks", edits: []edit{set("http_b1_cached", func(r *benchResult) { r.AllocsPerOp = 91 })}},
		{name: "allocating path grows", edits: []edit{set("matmul64", func(r *benchResult) { r.AllocsPerOp = 4 })}},

		// Presence.
		{name: "missing entry", edits: []edit{func(_, n *benchBaseline) { delete(n.Results, "matmul64") }}, fail: []string{"matmul64: missing from new.json"}},
		{name: "new allocating entry", edits: []edit{func(_, n *benchBaseline) { n.Results["extra"] = benchResult{NsPerOp: 1, AllocsPerOp: 1} }}, strict: true},
		{name: "new zero-alloc entry", edits: []edit{func(_, n *benchBaseline) { n.Results["extra"] = benchResult{NsPerOp: 1} }}},
		{name: "new zero-alloc entry, strict", edits: []edit{func(_, n *benchBaseline) { n.Results["extra"] = benchResult{NsPerOp: 1} }}, strict: true, fail: []string{"extra: new zero-alloc benchmark not in old.json"}},

		// ns/op against the old file: ±15 %, ±50 % over the loopback, and
		// only within one backend.
		{name: "within noise", edits: []edit{nsNew("matmul64", 27_600)}},
		{name: "beyond noise", edits: []edit{nsNew("matmul64", 27_601)}, fail: []string{"matmul64: ns/op regressed +15% (24000 -> 27601)"}},
		{name: "loopback within noise", edits: []edit{nsNew("http_b1_empty", 60_000), nsNew("http_b1_cached", 60_000)}},
		{name: "loopback beyond noise", edits: []edit{nsNew("http_b1_empty", 60_001)}, fail: []string{"http_b1_empty: ns/op regressed +50% (40000 -> 60001)"}},
		{name: "faster is no failure", edits: []edit{nsNew("matmul64", 1000)}},
		{name: "backends differ", edits: []edit{nsNew("matmul64", 48_000), func(o, _ *benchBaseline) { o.Backend = "scalar" }}},
		{name: "backends differ, allocs still gated", edits: []edit{set("matmul64", func(r *benchResult) { r.NsPerOp, r.AllocsPerOp = 48_000, 0 }), set("wire_known_768", func(r *benchResult) { r.AllocsPerOp = 2 }), func(o, _ *benchBaseline) { o.Backend = "scalar" }}, fail: []string{"wire_known_768: allocs/op grew 0 -> 2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			old, cur := baseline(healthyResults()), baseline(healthyResults())
			for _, e := range c.edits {
				e(old, cur)
			}
			got := compareResults(io.Discard, old, cur, "old.json", "new.json", false, c.strict)
			if len(got) != len(c.fail) {
				t.Fatalf("failures %q, want %d matching %q", got, len(c.fail), c.fail)
			}
			for k, want := range c.fail {
				if !strings.Contains(got[k], want) {
					t.Fatalf("failure %d is %q, want it to contain %q", k, got[k], want)
				}
			}
		})
	}
}

// TestCompareAtTheParentsCodec takes the codec entries of the committed
// baseline, measured on the byte-at-a-time reader: the decode relation
// fails on them, and the two relations re-priced in strconv's time put
// their bars where the decode put them — a value just under the old bar
// passes, one just over the new bar fails.
func TestCompareAtTheParentsCodec(t *testing.T) {
	check := func(known, cached int64, want ...string) {
		t.Helper()
		parent := baseline(healthyResults())
		for name, ns := range map[string]int64{
			"wire_parsefloat_768": 52_855, "wire_decode_768": 24_481, "http_b1_empty": 36_752,
			"wire_known_768": known, "http_b1_cached": cached,
		} {
			r := parent.Results[name]
			r.NsPerOp = ns
			parent.Results[name] = r
		}
		got := compareResults(io.Discard, parent, parent, "old.json", "new.json", false, false)
		if len(got) != len(want) {
			t.Fatalf("failures %q, want %d matching %q", got, len(want), want)
		}
		for k := range want {
			if !strings.HasPrefix(got[k], want[k]) {
				t.Fatalf("failure %d is %q, want it to start %q", k, got[k], want[k])
			}
		}
	}
	// Old bars: 0.15 × 24481 = 3672 and 36752 + 0.6 × 24481 = 51441.
	// New bars: 0.07 × 52855 = 3700 and 36752 + 0.28 × 52855 = 51551.
	check(3672, 51_441, "wire_decode_768 (24481 ns/op)")
	check(3701, 51_552, "wire_decode_768 (24481 ns/op)", "wire_known_768 (3701 ns/op)", "http_b1_cached (51552 ns/op)")
}

// TestCompareBaselinesFiles runs the file-level entry point: a failing
// comparison is an error, and update refreshes the old file only after
// a pass within one backend.
func TestCompareBaselinesFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b *benchBaseline) string {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stdout := os.Stdout
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = stdout; devnull.Close() }()

	bad := baseline(healthyResults())
	bad.Results["wire_decode_768"] = benchResult{NsPerOp: 20_000}
	oldPath := write("old.json", baseline(healthyResults()))
	if err := compareBaselines(oldPath, write("bad.json", bad), true, true); err == nil {
		t.Fatal("a broken relation passed")
	}
	good := baseline(healthyResults())
	good.Results["wire_decode_768"] = benchResult{NsPerOp: 10_000}
	other := baseline(maps.Clone(good.Results))
	other.Backend = "scalar"
	if err := compareBaselines(oldPath, write("other.json", other), true, true); err != nil {
		t.Fatal(err)
	}
	if b, err := readBaseline(oldPath); err != nil || b.Results["wire_decode_768"].NsPerOp != 15_000 {
		t.Fatalf("a scalar file replaced the avx2 baseline (%v)", err)
	}
	if err := compareBaselines(oldPath, write("good.json", good), true, true); err != nil {
		t.Fatal(err)
	}
	if b, err := readBaseline(oldPath); err != nil || b.Results["wire_decode_768"].NsPerOp != 10_000 {
		t.Fatalf("update did not refresh the baseline (%v)", err)
	}
}
