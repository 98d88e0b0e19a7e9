package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// compareNoiseThreshold is the ns/op movement treated as shared-box
// noise, per the ROADMAP Performance contract (±15%).
const compareNoiseThreshold = 0.15

// loopbackNoiseThreshold is the band for the entries that cross the
// loopback (http_*, route_*). Their wall clock is mostly system calls
// and goroutine wake-ups, which on a virtualised box move with the
// host, not with the code: the same binary measured http_b1_cached
// between 164 and 213 µs within the hour on the 2-vCPU reference box,
// and twice that in its worst minutes, while the in-process entries
// stayed within 10 %. The band still fails what these entries exist to
// catch — reflection-based decoding back on the request path doubles
// http_b1_cached — and the paired end-to-end runs in benchmark/ are
// the fine instrument.
const loopbackNoiseThreshold = 0.5

// relations are the gates read within the new file alone — one
// machine, one backend, one minute — so they do not move with the host:
// name may cost at most factor × ref, plus plusFactor × plus where a
// relation has a second term. A relation with slackBytes is read in
// bytes/op instead, which does not move with the host at all: name may
// allocate at most factor × ref + slackBytes. A relation with minCPU or
// maxCPU holds only for a file whose cores are within them: its num_cpu,
// or its gomaxprocs if fewer — what the engine's fan-out can use.
var relations = []struct {
	name, ref      string
	factor         float64
	plus           string
	plusFactor     float64
	slackBytes     int64
	minCPU, maxCPU int
	why            string
}{
	// Reuse must pay in time, not only in MACs.
	{name: "anytime_walk_lenet3c1l_b1", ref: "forward_lenet3c1l_b1", factor: 1.10, why: "the four-rung batch-1 walk against one from-scratch forward of the widest subnet"},
	// A batch of 8 is sharded over the cores by image (measured 0.54–0.55
	// on two); on one core it is walked serially, not at a loss.
	{name: "anytime_walk_lenet3c1l", ref: "anytime_walk_lenet3c1l_b1", factor: 8 * 0.75, minCPU: 2, why: "a batch of 8 on two cores or more against eight lone images"},
	{name: "anytime_walk_lenet3c1l", ref: "anytime_walk_lenet3c1l_b1", factor: 8 * 1.05, maxCPU: 1, why: "a batch of 8 on one core against eight lone images"},
	// The codec reads each float once, in its own pass: well under what
	// strconv alone takes for the same tokens (measured 0.46–0.48).
	{name: "wire_decode_768", ref: "wire_parsefloat_768", factor: 0.6, why: "the whole request decode against strconv.ParseFloat on its 768 tokens"},
	// The key is a word-at-a-time fold (measured 0.023; the bytewise
	// hash it replaced read 0.15).
	{name: "cache_keyof_768", ref: "wire_parsefloat_768", factor: 0.05, why: "hashing the input against parsing it"},
	// A text the handler has parsed before costs one pass of a hash over
	// it, not its numbers again (measured 0.06–0.08).
	{name: "wire_known_768", ref: "wire_decode_768", factor: 0.15, why: "recognising an input text against decoding it"},
	// A cached hit is the exchange plus well under one decode: nothing
	// of it parses a float, queues or changes goroutine (measured 0.2–0.5
	// of a decode above the floor, the pair's runs alternating; it was
	// 1.7 while a hit parsed its input and crossed the queue).
	{name: "http_b1_cached", ref: "http_b1_empty", factor: 1, plus: "wire_decode_768", plusFactor: 0.6, why: "a cached hit over loopback against the same POST to a handler that discards it, plus 0.6 of a decode"},
	// A routed hit is one more exchange, not a second stack: the router
	// pools its buffers and Remote writes the forwarded text by reference
	// (measured 1.64 × and +4.3 KB; through net/http's client it was
	// 2.1–2.8 × and +55–62 KB).
	{name: "route_b1_cached", ref: "http_b1_cached", factor: 2.5, why: "a cached hit through a router against the same hit straight from the replica"},
	{name: "route_b1_cached", ref: "http_b1_cached", factor: 1, slackBytes: 8 << 10, why: "what a routed hit allocates against the same hit straight from the replica, plus 8 KiB"},
}

// allocCapped are allocating entries whose allocs/op may still not grow
// past the committed baseline's: a cached hit's answer is written into
// the request's pooled buffers, and a buffer that escapes shows here.
var allocCapped = []string{"http_b1_cached"}

// noiseThreshold returns the ns/op band benchmark name is gated with.
func noiseThreshold(name string) float64 {
	if strings.HasPrefix(name, "http_") || strings.HasPrefix(name, "route_") {
		return loopbackNoiseThreshold
	}
	return compareNoiseThreshold
}

// compareBaselines diffs two benchmark baseline JSON files (old vs
// new) and enforces the regression gate ci.sh relies on:
//
//   - ns/op movement within ±15% (±50% for the loopback entries, see
//     loopbackNoiseThreshold) is reported as noise;
//   - ns/op regressions beyond the threshold fail — unless the two
//     baselines were produced by different GEMM backends (a scalar-only
//     machine comparing against a committed avx2 baseline, or an old
//     file predating the backend tag), in which case wall-clock is
//     incomparable by construction and only reported;
//   - ANY allocs/op growth on a path that was zero-alloc in the old
//     baseline fails — allocation creep is deterministic, backend- and
//     machine-independent, never noise;
//   - benchmarks missing from the new file fail (a silently dropped
//     benchmark is how perf contracts rot);
//   - allocs/op growth on an entry of allocCapped fails too;
//   - within the new file, every entry of relations holds: the batch-1
//     walk ≤ 1.10 × the batch-1 forward, the batch-8 walk ≤ 8 × 0.75 ×
//     the batch-1 walk on two cores or more, counted as the fewer of
//     num_cpu and gomaxprocs (8 × 1.05 × on one),
//     wire_decode_768 ≤ 0.6 × and cache_keyof_768 ≤
//     0.05 × wire_parsefloat_768, wire_known_768 ≤ 0.15 ×
//     wire_decode_768, http_b1_cached ≤ http_b1_empty + 0.6 ×
//     wire_decode_768, route_b1_cached ≤ 2.5 × http_b1_cached in ns/op
//     and ≤ http_b1_cached + 8 KiB in B/op.
//
// New benchmarks absent from the old baseline are reported and, when
// allocating, never fail, so adding coverage stays cheap. New
// ZERO-ALLOC benchmarks, however, are warned about — and fail under
// strict — because a zero-alloc path that never enters the committed
// baseline is a path the alloc gate silently does not protect: the
// next PR could regress it to an allocating one without tripping
// anything. Strict mode (ci.sh) forces the author of a new zero-alloc
// benchmark to refresh the committed baseline in the same PR — and a
// run with update set is that refresh, so there it only reports them.
//
// With update set, a passing comparison replaces the old baseline
// file with the new one — but only when both were produced by the
// same backend, so a scalar-only machine can never clobber the
// committed avx2 reference numbers. Replacement is deliberately not
// the default: gating every run against the previous run would let
// sub-threshold regressions ratchet — each PR 14% slower than the
// last, none ever failing — whereas gating against a pinned
// committed reference makes the drift visible in review when the
// baseline is intentionally refreshed.
func compareBaselines(oldPath, newPath string, update, strict bool) error {
	oldBase, err := readBaseline(oldPath)
	if err != nil {
		return err
	}
	newBase, err := readBaseline(newPath)
	if err != nil {
		return err
	}
	sameBackend := oldBase.Backend == newBase.Backend
	// A backend mismatch must be impossible to miss in CI logs: it
	// means every ns/op verdict below is ungated, and a reader skimming
	// for "no regressions" would otherwise take the run as a clean
	// wall-clock pass. Shout it up front, tag every skipped verdict
	// with the backend pair, and repeat it next to the final verdict.
	backendPair := ""
	if !sameBackend {
		backendPair = fmt.Sprintf("%s -> %s", orUnknown(oldBase.Backend), orUnknown(newBase.Backend))
		fmt.Printf("WARNING: baseline backends differ (%s): ns/op is incomparable and NOT GATED this run\n", backendPair)
		fmt.Printf("WARNING: only the allocs/op gate applies; rerun with matching backends to gate wall-clock\n")
	}

	names := make([]string, 0, len(oldBase.Results)+len(newBase.Results))
	for name := range oldBase.Results {
		names = append(names, name)
	}
	for name := range newBase.Results {
		if _, ok := oldBase.Results[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var failures []string
	fmt.Printf("%-28s %12s %12s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "Δ", "verdict")
	for _, name := range names {
		o, haveOld := oldBase.Results[name]
		n, haveNew := newBase.Results[name]
		switch {
		case !haveNew:
			fmt.Printf("%-28s %12d %12s %8s  MISSING from new baseline\n", name, o.NsPerOp, "-", "-")
			failures = append(failures, fmt.Sprintf("%s: missing from %s", name, newPath))
			continue
		case !haveOld:
			if n.AllocsPerOp == 0 {
				fmt.Printf("%-28s %12s %12d %8s  new ZERO-ALLOC benchmark missing from baseline\n", name, "-", n.NsPerOp, "-")
				msg := fmt.Sprintf("%s: new zero-alloc benchmark not in %s — refresh the baseline or its alloc contract is ungated", name, oldPath)
				switch {
				case update: // this run is the refresh
				case strict:
					failures = append(failures, msg)
				default:
					fmt.Printf("WARNING: %s\n", msg)
				}
			} else {
				fmt.Printf("%-28s %12s %12d %8s  new benchmark\n", name, "-", n.NsPerOp, "-")
			}
			continue
		}

		delta := math.Inf(1)
		if o.NsPerOp > 0 {
			delta = float64(n.NsPerOp-o.NsPerOp) / float64(o.NsPerOp)
		}
		verdict := "ok (noise)"
		noise := noiseThreshold(name)
		switch {
		case delta < -noise:
			verdict = "faster"
		case delta > noise && sameBackend:
			verdict = "SLOWER beyond noise"
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %+.0f%% (%d -> %d)",
				name, delta*100, o.NsPerOp, n.NsPerOp))
		case delta > noise:
			verdict = fmt.Sprintf("slower (backend %s, not gated)", backendPair)
		}
		if o.AllocsPerOp == 0 && n.AllocsPerOp > 0 {
			verdict = "ALLOCS on zero-alloc path"
			failures = append(failures, fmt.Sprintf("%s: allocs/op grew 0 -> %d on a zero-alloc path",
				name, n.AllocsPerOp))
		} else if n.AllocsPerOp > o.AllocsPerOp && slices.Contains(allocCapped, name) {
			verdict = "ALLOCS grew on a capped path"
			failures = append(failures, fmt.Sprintf("%s: allocs/op grew %d -> %d past its cap", name, o.AllocsPerOp, n.AllocsPerOp))
		} else if n.AllocsPerOp > o.AllocsPerOp {
			// Growth on an already-allocating path: report loudly but
			// let the ns/op gate decide.
			verdict += fmt.Sprintf(" [allocs %d -> %d]", o.AllocsPerOp, n.AllocsPerOp)
		}
		fmt.Printf("%-28s %12d %12d %+7.0f%%  %s\n", name, o.NsPerOp, n.NsPerOp, delta*100, verdict)
	}

	cores := newBase.NumCPU
	if newBase.MaxProcs > 0 {
		cores = min(cores, newBase.MaxProcs)
	}
	for _, rel := range relations {
		if cores < rel.minCPU || rel.maxCPU > 0 && cores > rel.maxCPU {
			continue
		}
		got, ref, plus := newBase.Results[rel.name], newBase.Results[rel.ref], newBase.Results[rel.plus]
		if rel.slackBytes > 0 {
			if bound := rel.factor*float64(ref.BytesPerOp) + float64(rel.slackBytes); ref.NsPerOp > 0 && float64(got.BytesPerOp) > bound {
				failures = append(failures, fmt.Sprintf("%s (%d B/op) exceeds %.2f × %s (%d B/op) + %d B: %s",
					rel.name, got.BytesPerOp, rel.factor, rel.ref, ref.BytesPerOp, rel.slackBytes, rel.why))
			}
			continue
		}
		bound := rel.factor*float64(ref.NsPerOp) + rel.plusFactor*float64(plus.NsPerOp)
		if ref.NsPerOp > 0 && float64(got.NsPerOp) > bound {
			second := ""
			if rel.plus != "" {
				second = fmt.Sprintf(" + %.2f × %s (%d ns/op)", rel.plusFactor, rel.plus, plus.NsPerOp)
			}
			failures = append(failures, fmt.Sprintf("%s (%d ns/op) exceeds %.2f × %s (%d ns/op)%s: %s",
				rel.name, got.NsPerOp, rel.factor, rel.ref, ref.NsPerOp, second, rel.why))
		}
	}

	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Printf("REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(failures))
	}
	if !sameBackend {
		fmt.Printf("\nno regressions — but WARNING: ns/op was NOT GATED (backends differ: %s)\n", backendPair)
	} else {
		fmt.Println("\nno regressions")
	}

	if update {
		if !sameBackend {
			fmt.Printf("baseline NOT updated: %s was produced by backend %q, this machine produced %q\n",
				oldPath, oldBase.Backend, newBase.Backend)
			return nil
		}
		data, err := os.ReadFile(newPath)
		if err != nil {
			return err
		}
		if err := os.WriteFile(oldPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("baseline updated: %s <- %s\n", oldPath, newPath)
	}
	return nil
}

// orUnknown names an empty backend tag (baselines predating the tag)
// so the mismatch warning never prints a blank.
func orUnknown(backend string) string {
	if backend == "" {
		return "(untagged)"
	}
	return backend
}

func readBaseline(path string) (*benchBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &b, nil
}
