package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"steppingnet/internal/serve"
	"steppingnet/internal/tensor"
)

// plainInferRequest is InferRequest as encoding/json sees it without
// the hand-written reader: the same fields and tags, no methods. It is
// the reference the codec is pinned to.
type plainInferRequest struct {
	Input      []float64 `json:"input,omitempty"`
	DeadlineMs float64   `json:"deadline_ms,omitempty"`
	Priority   int       `json:"priority,omitempty"`
}

// referenceDecode is what the handlers did before the codec, plus the
// trailing-data rule: reflection-based decode of one value, then
// nothing but whitespace.
func referenceDecode(body []byte) (plainInferRequest, error) {
	var p plainInferRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&p); err != nil {
		return p, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return p, fmt.Errorf("data after the request object")
	}
	return p, nil
}

// checkAgainstReference fails t unless the codec and encoding/json
// agree on body: both reject, or both accept with bitwise-equal
// inputs (nil-ness included) and equal deadline and priority.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceDecode(body)
	var got InferRequest
	gotErr := got.UnmarshalJSON(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs on %q:\n  codec: %v\n  encoding/json: %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if (got.Input == nil) != (want.Input == nil) || len(got.Input) != len(want.Input) {
		t.Fatalf("input differs on %q: codec %v, encoding/json %v", body, got.Input, want.Input)
	}
	for i := range got.Input {
		if math.Float64bits(got.Input[i]) != math.Float64bits(want.Input[i]) {
			t.Fatalf("input[%d] differs on %q: codec %v (%#x), encoding/json %v (%#x)", i, body,
				got.Input[i], math.Float64bits(got.Input[i]), want.Input[i], math.Float64bits(want.Input[i]))
		}
	}
	if math.Float64bits(got.DeadlineMs) != math.Float64bits(want.DeadlineMs) || got.Priority != want.Priority {
		t.Fatalf("metadata differs on %q: codec (%v, %d), encoding/json (%v, %d)", body,
			got.DeadlineMs, got.Priority, want.DeadlineMs, want.Priority)
	}
}

// benchBody is a request of the benchmark's shape: n standard-normal
// floats formatted shortest-round-trip, then deadline and priority.
func benchBody(n int) ([]byte, []float64) {
	x := tensor.New(n)
	x.FillNormal(tensor.NewRNG(11), 0, 1)
	body, err := appendInferRequest(nil, serve.Request{Input: x.Data(), Deadline: 50 * time.Millisecond, Priority: 1})
	if err != nil {
		panic(err)
	}
	return body, x.Data()
}

// codecSeeds are the shapes the committed fuzz corpus starts from:
// every number form at the edge of the JSON grammar or the float64
// range, every structural oddity encoding/json has an opinion on.
func codecSeeds() [][]byte {
	bench, _ := benchBody(12)
	seeds := []string{
		string(bench),
		`{}`, `null`, ` null `, `nullx`, `{"input":null}`, `{"input":[]}`, `{"input":[ ]}`,
		`{"input":"input"}`, `{"input":{}}`, `{"input":true}`, `{"input":3}`,
		`{"input":[[1],[2]]}`, `{"input":[1,[2]]}`, `{"input":["1"]}`, `{"input":[true]}`, `{"input":[{}]}`,
		`{"input":[null]}`, `{"input":[1,null,3]}`,
		`{"input":[5,6,7],"input":[null,null]}`,
		`{"input":[5,6,7],"input":[1],"input":[null,null,null,null]}`,
		`{"input":[5,6],"input":[],"input":[null]}`,
		`{"input":[5,6],"input":null,"input":[null]}`,
		`{"input":[1],"input":[2,3]}`, `{"deadline_ms":1,"deadline_ms":null}`, `{"priority":2,"priority":null}`,
		`{"Input":[1],"DEADLINE_MS":2,"Priority":3}`,
		"{\"deadline_m\u017f\":4}", "{\"\u212aey\":1}", `{"\u0069nput":[9]}`, `{"in\u0070ut":[9],"inpu\u0074":[8]}`,
		`{"\ud83d\ude00":1}`, `{"\ud800":1}`, "{\"inp\xffut\":[1]}", `{"in\put":1}`, `{"in\u00zzput":1}`,
		`{"x":"a\"b\\c\/d\b\f\n\r\t\u12aB"}`, "{\"x\":\"tab\there\"}", `{"x":"unterminated`,
		`{"unknown":{"a":[1,2,{"b":null}],"c":"d"},"input":[1]}`, `{"unknown":1e400}`, `{"unknown":tru}`, `{"unknown":nul}`,
		`{"input":[1,2,3],"deadline_ms":5,"priority":1}`,
		`{"priority":1,"deadline_ms":5,"input":[1,2,3]}`,
		` { "input" : [ 1 , 2 ] , "deadline_ms" : 5 } `, "\t\r\n{\"input\":[1]}\n", "\ufeff{}", "\v{}",
		`{"input":[1,2,3]}garbage`, `{"input":[1]} {}`, `{"input":[1]},`, `{}{}`, `{} null`,
		`{"deadline_ms":1e400}`, `{"deadline_ms":-1e400}`, `{"deadline_ms":1e-400}`, `{"deadline_ms":"5"}`,
		`{"priority":1.0}`, `{"priority":1e2}`, `{"priority":-0}`, `{"priority":-7}`,
		`{"priority":9223372036854775807}`, `{"priority":9223372036854775808}`, `{"priority":"1"}`,
		`{"input":[1,]}`, `{"input":[,1]}`, `{"input":[1 2]}`, `{"input":[1],}`, `{,}`, `{"input"}`, `{"input":}`, `{input:[1]}`,
		`[]`, `[1,2]`, `"input"`, `3`, `true`, ``, ` `, `{`, `}`, `[`, `]`, `{"`, `{"input`, `{"input"`, `{"input":`, `{"input":[`,
		`{"input":[1`, `{"input":[1,`, `{"input":[1]`, `{"input":[1],`, `{"input":[1],"`, `{"input":[1],"deadline_ms"`, `{"input":[1],"deadline_ms":`,
		`{"input":[1],"deadline_ms":5`,
	}
	for _, num := range append([]string{
		`0`, `-0`, `-0.0`, `0.0`, `5e-324`, `4.9e-324`, `2.2250738585072014e-308`, `1.7976931348623157e308`,
		`1.7976931348623159e308`, `1e400`, `-1e400`, `1e-400`, `1E+2`, `1e+06`, `1E-2`, `1e0`, `0e0`, `0.1`, `123456789012345678901234567890`,
		`0.1234567890123456789012345678901234567890`, `9007199254740993`, `0.30000000000000004`,
		`01`, `00`, `-01`, `+1`, `.5`, `-.5`, `1.`, `1.e2`, `1e`, `1e+`, `-`, `--1`, `1-`, `0x1p3`, `0x10`, `NaN`, `nan`, `Infinity`,
		`-Infinity`, `Inf`, `1_0`, `1e1_0`, `1,0`, `1 0`, `١`,
	}, hardNumbers...) {
		seeds = append(seeds, `{"input":[`+num+`]}`, `{"input":[1,`+num+`,2],"deadline_ms":`+num+`}`, `{"priority":`+num+`}`)
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// TestCodecMatchesEncodingJSON walks the seed corpus, and the bodies
// only a program writes (nesting at encoding/json's depth bound, a
// full-size request), through the differential check.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, body := range codecSeeds() {
		checkAgainstReference(t, body)
	}
	for _, depth := range []int{jsonMaxDepth - 2, jsonMaxDepth - 1, jsonMaxDepth, jsonMaxDepth + 1} {
		for _, pair := range []string{"[]", "{}"} {
			open, shut := pair[:1], pair[1:]
			if pair == "{}" {
				open = `{"k":`
			}
			body := `{"unknown":` + strings.Repeat(open, depth) + `1` + strings.Repeat(shut, depth) + `}`
			checkAgainstReference(t, []byte(body))
		}
	}
	full, _ := benchBody(768)
	checkAgainstReference(t, full)
}

// TestCodecScratchAndText pins what the handler leans on beyond the
// values: numbers land in the caller's scratch, an absent input stays
// nil, a null element never reads scratch beyond its length (pooled
// memory holds an earlier request's input), and text is exactly the
// array's bytes — withheld when they do not spell the values.
func TestCodecScratchAndText(t *testing.T) {
	scratch := make([]float64, 0, 8)
	stale := scratch[:8]
	for i := range stale {
		stale[i] = 42
	}
	var req InferRequest
	text, err := req.decode([]byte(` {"deadline_ms":3,"input": [1, 2.5 ,-3e0] ,"x":[4]} `), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != `[1, 2.5 ,-3e0]` {
		t.Fatalf("text = %q, want the input array's bytes", text)
	}
	if len(req.Input) != 3 || &req.Input[0] != &stale[0] {
		t.Fatalf("input %v did not land in the caller's scratch", req.Input)
	}

	req = InferRequest{}
	if text, err = req.decode([]byte(`{"deadline_ms":3}`), scratch); err != nil || req.Input != nil || text != nil {
		t.Fatalf("absent input: got input %v text %q err %v, want nil nil nil", req.Input, text, err)
	}
	for i := range stale {
		stale[i] = 42
	}
	if text, err = req.decode([]byte(`{"input":[null,7,null]}`), scratch); err != nil {
		t.Fatal(err)
	}
	if text != nil {
		t.Fatalf("text %q offered for an array whose nulls it does not spell out", text)
	}
	if want := []float64{0, 7, 0}; len(req.Input) != 3 || req.Input[0] != want[0] || req.Input[1] != want[1] || req.Input[2] != want[2] {
		t.Fatalf("null elements read stale scratch: got %v, want %v", req.Input, want)
	}

	// More numbers than scratch holds: grown, values intact.
	body, want := benchBody(100)
	req = InferRequest{}
	if _, err = req.decode(body, scratch); err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if math.Float64bits(req.Input[i]) != math.Float64bits(v) {
			t.Fatalf("input[%d] = %v after growth, want %v", i, req.Input[i], v)
		}
	}
}

// TestAppendInferRequest pins the writer: what it emits decodes, by
// encoding/json, to the InferRequest json.Marshal used to produce for
// the same serve.Request — with and without carried input text.
func TestAppendInferRequest(t *testing.T) {
	_, in := benchBody(16)
	in = append(in, 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e21, 1e-7, 123456789)
	cases := []serve.Request{
		{},
		{Input: in},
		{Input: in, Deadline: 50 * time.Millisecond},
		{Input: in, Deadline: 1500 * time.Microsecond, Priority: 3},
		{Deadline: time.Nanosecond, Priority: -2},
		{Priority: 1},
		{Input: []float64{}},
		{Input: []float64{1, 2}, InputJSON: []byte("[ 1 , 2.0e0 ]"), Deadline: time.Second, Priority: 1},
		{Input: []float64{1, 2}, InputJSON: []byte("[1,2]")},
	}
	for _, req := range cases {
		body, err := appendInferRequest(nil, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		got, err := referenceDecode(body)
		if err != nil {
			t.Fatalf("%+v: wrote %q, which encoding/json rejects: %v", req, body, err)
		}
		want := plainInferRequest{DeadlineMs: float64(req.Deadline) / float64(time.Millisecond), Priority: req.Priority}
		if len(req.Input) > 0 {
			want.Input = req.Input
		}
		if len(got.Input) != len(want.Input) || got.DeadlineMs != want.DeadlineMs || got.Priority != want.Priority {
			t.Fatalf("%+v: wrote %q, decoding to %+v, want %+v", req, body, got, want)
		}
		for i := range want.Input {
			if math.Float64bits(got.Input[i]) != math.Float64bits(want.Input[i]) {
				t.Fatalf("input[%d] = %v, want %v, in %q", i, got.Input[i], want.Input[i], body)
			}
		}
		if req.InputJSON != nil && !bytes.Contains(body, req.InputJSON) {
			t.Fatalf("carried text %q not forwarded verbatim in %q", req.InputJSON, body)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendInferRequest(nil, serve.Request{Input: []float64{1, bad}}); err == nil {
			t.Fatalf("input %v has no JSON form and must be refused", bad)
		}
	}
}

// FuzzDecodeInferRequest is the codec's contract: for any byte string
// it and encoding/json (same struct tags, then the no-trailing-data
// rule) agree on accept or reject, and on accept the inputs are
// bitwise equal and deadline and priority equal.
func FuzzDecodeInferRequest(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

func BenchmarkDecodeInferRequest(b *testing.B) {
	body, _ := benchBody(768)
	b.Run("codec", func(b *testing.B) {
		req := InferRequest{Input: make([]float64, 0, 768)}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := req.UnmarshalJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Decoder", func(b *testing.B) { // the benchmark's stepserve.decode probe
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req InferRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reflect", func(b *testing.B) { // what the handlers did before
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req plainInferRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
