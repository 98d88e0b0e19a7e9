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
	"steppingnet/internal/serve/cache"
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
// inputs (nil-ness included) and equal deadline and priority. The body
// then goes twice through the handler's form of the codec, the second
// time against the memo the first pass warmed, and each pass must say
// what the cold decode said — see checkWarm.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceDecode(body)
	var got InferRequest
	gotErr := got.UnmarshalJSON(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs on %q:\n  codec: %v\n  encoding/json: %v", body, gotErr, wantErr)
	}
	memo := new(textMemo)
	checkWarm(t, body, memo, "filling the memo", got, gotErr)
	checkWarm(t, body, memo, "against the warm memo", got, gotErr)
	if gotErr != nil {
		return
	}
	if (got.Input == nil) != (want.Input == nil) {
		t.Fatalf("input differs on %q: codec %v, encoding/json %v", body, got.Input, want.Input)
	}
	sameInput(t, body, "encoding/json", got.Input, want.Input)
	if math.Float64bits(got.DeadlineMs) != math.Float64bits(want.DeadlineMs) || got.Priority != want.Priority {
		t.Fatalf("metadata differs on %q: codec (%v, %d), encoding/json (%v, %d)", body,
			got.DeadlineMs, got.Priority, want.DeadlineMs, want.Priority)
	}
}

func sameInput(t *testing.T, body []byte, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("input differs on %q: %v, %s %v", body, got, what, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("input[%d] differs on %q: %v (%#x), %s %v (%#x)", i, body,
				got[i], math.Float64bits(got[i]), what, want[i], math.Float64bits(want[i]))
		}
	}
}

// checkWarm decodes body with memo, as the handler does, and holds the
// result to the cold decode of the same body (cold, coldErr): the same
// verdict, the same text range, deadline and priority; a key only for
// an array of numbers, and then KeyOf of the cold values; and either
// the cold values themselves or — the numbers skipped — a text that
// submitText, asked for the input, parses to exactly them.
func checkWarm(t *testing.T, body []byte, memo *textMemo, pass string, cold InferRequest, coldErr error) {
	t.Helper()
	var coldAgain InferRequest
	coldIn, _ := coldAgain.decode(body, nil, nil)
	var req InferRequest
	in, err := req.decode(body, nil, memo)
	if (err == nil) != (coldErr == nil) {
		t.Fatalf("%s, accept/reject differs from the cold decode on %q: %v, cold %v", pass, body, err, coldErr)
	}
	if err != nil {
		return
	}
	if (in.text == nil) != (coldIn.text == nil) || len(in.text) != len(coldIn.text) ||
		len(in.text) > 0 && &in.text[0] != &coldIn.text[0] {
		t.Fatalf("%s, text range differs on %q: %q, cold %q", pass, body, in.text, coldIn.text)
	}
	if math.Float64bits(req.DeadlineMs) != math.Float64bits(cold.DeadlineMs) || req.Priority != cold.Priority {
		t.Fatalf("%s, metadata differs on %q: (%v, %d), cold (%v, %d)", pass, body,
			req.DeadlineMs, req.Priority, cold.DeadlineMs, cold.Priority)
	}
	if in.keyed && (in.text == nil || len(cold.Input) == 0 || in.key != cache.KeyOf(cold.Input)) {
		t.Fatalf("%s, key %#x with text %q on %q, want one only for a non-empty array of numbers and then KeyOf(%v) = %#x",
			pass, in.key, in.text, body, cold.Input, cache.KeyOf(cold.Input))
	}
	if !in.keyed || req.Input != nil {
		if (req.Input == nil) != (cold.Input == nil) {
			t.Fatalf("%s, input differs on %q: %v, cold %v", pass, body, req.Input, cold.Input)
		}
		sameInput(t, body, "cold", req.Input, cold.Input)
		return
	}
	var submitted []float64
	_, parsed, err := submitText(func(r serve.Request) (serve.Result, error) {
		if r.Input == nil {
			return serve.Result{}, serve.ErrInputNeeded
		}
		if r.Keyed {
			t.Fatalf("%s: the re-submit of %q still carries the memo's key", pass, body)
		}
		submitted = r.Input
		return serve.Result{}, nil
	}, serve.Request{InputJSON: in.text, Key: in.key, Keyed: true}, nil)
	if err != nil {
		t.Fatalf("%s: the text %q the memo recognised in %q does not parse: %v", pass, in.text, body, err)
	}
	sameInput(t, body, "cold", parsed, cold.Input)
	sameInput(t, body, "cold", submitted, cold.Input)
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
		// What the memo's skip must not change (each body is decoded
		// again against a memo that knows its arrays): a known array then
		// an unknown one and the reverse, nulls keeping a skipped array's
		// values, brackets the bracket search must not mistake for the
		// array's, a body cut right after it.
		`{"input":[1,2,3],"input":[null,5]}`, `{"input":[null,5],"input":[1,2,3]}`, `{"input":[1,2],"input":[3,4],"input":[null]}`,
		`{"input":[7,8],"input":null}`, `{"input":[7,8],"input":[]}`, `{"input":[7,8],"input":"x"}`,
		`{"a":"]","input":[1,2]}`, `{"input":[1,2],"z":"]"}`, `{"a":"[1,2]","input":[1,2],"z":["]"]}`,
		`{"input":[1,[2],3]}`, `{"input":[[1,2]]}`, `{"input":[1,2]]}`, `{"input":[1,null,3],"deadline_ms":2}`,
		"{\"input\":[ 1 ,\t2\n,\r3 ]}", `{"deadline_ms":5,"priority":1,"input":[1,2,3]}`, `{"input":[],"deadline_ms":5}`,
		`{"input":[1,2,3,4]}`, `{"input":[1,2,3]`, `{"input":[1,2,3]  `, `{"input":[1,2,3],`, `{"input":[1,2,3]x}`, `{"input":[1,2,3`,
		`{"input":[1,2,3]}x`, `{"input":[1,2,3],"deadline_ms":}`,
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
	in, err := req.decode([]byte(` {"deadline_ms":3,"input": [1, 2.5 ,-3e0] ,"x":[4]} `), scratch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(in.text) != `[1, 2.5 ,-3e0]` || in.keyed {
		t.Fatalf("text = %q (keyed %v), want the input array's bytes and, without a memo, no key", in.text, in.keyed)
	}
	if len(req.Input) != 3 || &req.Input[0] != &stale[0] {
		t.Fatalf("input %v did not land in the caller's scratch", req.Input)
	}

	req = InferRequest{}
	if in, err = req.decode([]byte(`{"deadline_ms":3}`), scratch, nil); err != nil || req.Input != nil || in.text != nil {
		t.Fatalf("absent input: got input %v text %q err %v, want nil nil nil", req.Input, in.text, err)
	}
	for i := range stale {
		stale[i] = 42
	}
	if in, err = req.decode([]byte(`{"input":[null,7,null]}`), scratch, nil); err != nil {
		t.Fatal(err)
	}
	if in.text != nil {
		t.Fatalf("text %q offered for an array whose nulls it does not spell out", in.text)
	}
	if want := []float64{0, 7, 0}; len(req.Input) != 3 || req.Input[0] != want[0] || req.Input[1] != want[1] || req.Input[2] != want[2] {
		t.Fatalf("null elements read stale scratch: got %v, want %v", req.Input, want)
	}

	// More numbers than scratch holds: grown, values intact.
	body, want := benchBody(100)
	req = InferRequest{}
	if _, err = req.decode(body, scratch, nil); err != nil {
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
// bitwise equal and deadline and priority equal — whether the numbers
// were read or, their text known to a memo, skipped.
func FuzzDecodeInferRequest(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

// referenceAnswer is how Remote read an answer before the codec, plus
// the trailing-data rule: encoding/json into InferResponse, then
// nothing but whitespace.
func referenceAnswer(body []byte) (InferResponse, error) {
	var ans InferResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&ans); err != nil {
		return ans, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return ans, fmt.Errorf("data after the answer object")
	}
	return ans, nil
}

// checkAnswer fails t unless decodeInferResponse and encoding/json
// agree on body — both reject, or both accept with the same answer,
// logits bitwise and nil-ness included — and, on accept, unless
// appendInferResponse writes that answer byte for byte as
// json.NewEncoder(w).Encode does.
func checkAnswer(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceAnswer(body)
	got, gotErr := decodeInferResponse(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs on %q:\n  codec: %v\n  encoding/json: %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if (got.Logits == nil) != (want.Logits == nil) {
		t.Fatalf("logits differ on %q: codec %v, encoding/json %v", body, got.Logits, want.Logits)
	}
	sameInput(t, body, "encoding/json", got.Logits, want.Logits)
	if got.Subnet != want.Subnet || got.Pred != want.Pred || got.MACs != want.MACs || got.Priority != want.Priority ||
		got.DeadlineMet != want.DeadlineMet || got.CacheHit != want.CacheHit || got.Resumed != want.Resumed || got.EarlyExit != want.EarlyExit ||
		math.Float64bits(got.QueueWaitMs) != math.Float64bits(want.QueueWaitMs) || math.Float64bits(got.LatencyMs) != math.Float64bits(want.LatencyMs) {
		t.Fatalf("answer differs on %q:\n  codec: %+v\n  encoding/json: %+v", body, got, want)
	}
	checkAnswerWriter(t, got)
}

// checkAnswerWriter fails t unless appendInferResponse writes ans as
// json.NewEncoder(w).Encode does — or, for a value encoding/json
// refuses, refuses it too.
func checkAnswerWriter(t *testing.T, ans InferResponse) {
	t.Helper()
	var enc bytes.Buffer
	encErr := json.NewEncoder(&enc).Encode(ans)
	out, err := appendInferResponse([]byte("prefix"), ans)
	if (err == nil) != (encErr == nil) {
		t.Fatalf("%+v: the writer says %v, encoding/json %v", ans, err, encErr)
	}
	if err == nil && string(out) != "prefix"+enc.String() {
		t.Fatalf("%+v: the writer wrote\n  %q\nencoding/json\n  %q", ans, out[len("prefix"):], enc.Bytes())
	}
}

// answerSeeds are the shapes the committed answer corpus starts from:
// what replicas write, then every field form encoding/json has an
// opinion on.
func answerSeeds() [][]byte {
	var written []string
	for _, res := range []serve.Result{
		{Subnet: 4, Pred: 3, Logits: []float64{-1.25, 0, 3e-7, 1e21, 0.1}, MACs: 123456, Priority: 1, DeadlineMet: true,
			QueueWait: 1234567 * time.Nanosecond, Latency: 2 * time.Millisecond, CacheHit: true, Resumed: true, EarlyExit: true},
		{Subnet: 1, Logits: []float64{}, QueueWait: time.Nanosecond},
		{Pred: -1, MACs: -7, Priority: -2, Latency: 1<<63 - 1},
		{},
	} {
		var b bytes.Buffer
		json.NewEncoder(&b).Encode(WireResponse(res)) //nolint:errcheck — finite by construction
		written = append(written, b.String())
	}
	seeds := append(written,
		`null`, `{}`, ` { } `, `[]`, `{"logits":null}`, `{"logits":[]}`, `{"logits":[null]}`, `{"logits":[1,null,3]}`,
		`{"logits":[5,6,7],"logits":[null,null]}`, `{"logits":[5,6,7],"logits":[1],"logits":[null,null,null,null]}`,
		`{"logits":[5,6],"logits":[],"logits":[null]}`, `{"logits":[5,6],"logits":null,"logits":[null]}`,
		`{"logits":"1"}`, `{"logits":{}}`, `{"logits":[[1]]}`, `{"logits":[true]}`, `{"logits":1}`,
		`{"SUBNET":2,"Pred":1,"Cache_Hit":true,"DEADLINE_MET":false,"Logits":[1]}`, "{\"macſ\":3}", `{"subnet":1,"unknown":{"a":[1,{"b":null}]},"x":"y"}`,
		`{"deadline_met":true,"deadline_met":null}`, `{"deadline_met":1}`, `{"deadline_met":"true"}`, `{"deadline_met":tru}`,
		`{"cache_hit":false}`, `{"cache_hit":truex}`, `{"resumed":nul}`, `{"early_exit":[true]}`,
		`{"subnet":1.0}`, `{"subnet":1e2}`, `{"subnet":-0}`, `{"subnet":"1"}`, `{"subnet":null}`, `{"subnet":01}`,
		`{"subnet":9223372036854775807}`, `{"subnet":9223372036854775808}`, `{"macs":-9223372036854775808}`, `{"macs":-9223372036854775809}`,
		`{"queue_wait_ms":"1"}`, `{"latency_ms":null}`, `{"latency_ms":-0}`, `{"queue_wait_ms":true}`,
		`{"subnet":1}garbage`, `{"subnet":1} {}`, `{"subnet":1`, `{"subnet":1,}`, `{"subnet"}`, `{"subnet":}`, ``, `{`,
	)
	for _, num := range append([]string{`1e-7`, `1e-6`, `9.999999e20`, `1e21`, `123456789`, `-0.0`, `0.1`}, hardNumbers...) {
		seeds = append(seeds, `{"logits":[`+num+`],"queue_wait_ms":`+num+`}`, `{"latency_ms":`+num+`,"macs":`+num+`}`)
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// TestAnswerCodecMatchesEncodingJSON walks the answer seeds through
// the differential check, and the writer over the values replicas
// write and the ones JSON cannot carry.
func TestAnswerCodecMatchesEncodingJSON(t *testing.T) {
	for _, body := range answerSeeds() {
		checkAnswer(t, body)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e-6, 9.999999999999999e-7, 1e21, 999999999999999900000,
		-1e-7, 1.5e300, 0.30000000000000004, math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAnswerWriter(t, InferResponse{Logits: []float64{1, v}})
		checkAnswerWriter(t, InferResponse{QueueWaitMs: v, LatencyMs: -v, CacheHit: true})
	}
	if _, err := appendInferResponse(nil, InferResponse{Logits: []float64{1, math.NaN()}}); err == nil || !strings.Contains(err.Error(), "logits[1] is NaN") {
		t.Fatalf("a NaN logit: %v, want an error naming logits[1]", err)
	}
}

// FuzzDecodeInferResponse is the answer codec's contract: for any byte
// string the reader and encoding/json (into InferResponse, then the
// no-trailing-data rule) agree on accept or reject, and on accept on
// every field, bitwise; and the writer writes what it read back exactly
// as json.NewEncoder(w).Encode does.
func FuzzDecodeInferResponse(f *testing.F) {
	for _, s := range answerSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAnswer(t, body)
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
