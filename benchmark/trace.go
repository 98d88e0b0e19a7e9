package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// request share Req; Parent is the index of the span that caused this
// one (-1 for a root). Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is the untraced side of the overhead
// comparison.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, to pass to end and to
// children as their parent.
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// add records a span whose interval was measured elsewhere (the
// service reports its queue wait as a duration, not as two instants).
func (t *tracer) add(name string, req, parent int, start time.Time, d time.Duration) {
	if t != nil {
		s := int64(start.Sub(t.t0))
		t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: s, End: s + int64(d)})
	}
}

// selfUs returns every span's self time in microseconds: its duration
// minus the part of it its child spans cover.
func (t *tracer) selfUs() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.End-s.Start) / 1e3
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.End-s.Start) / 1e3
		}
	}
	return self
}

// perReq sums the spans of one name per request: their durations, or
// with self set their self times, in microseconds. The sums come in
// request order; a request without such a span is left out.
func (t *tracer) perReq(name string, self bool) []float64 {
	var selfUs []float64
	if self {
		selfUs = t.selfUs()
	}
	var sums []float64
	var seen []bool
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		for len(sums) <= s.Req {
			sums, seen = append(sums, 0), append(seen, false)
		}
		seen[s.Req] = true
		if self {
			sums[s.Req] += selfUs[i]
		} else {
			sums[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	out := sums[:0]
	for r, ok := range seen {
		if ok {
			out = append(out, sums[r])
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
