package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
)

// knownReplica is a replica-mode handler over a cache-armed server.
type knownReplica struct {
	srv    *serve.Server
	ts     *httptest.Server
	imgLen int
}

func newKnownReplica(t *testing.T, seed uint64, cacheEntries int) *knownReplica {
	t.Helper()
	m := buildModel(seed)
	r := &knownReplica{imgLen: m.InC * m.InH * m.InW}
	srv, err := serve.New(serve.Config{
		Model: m, Subnets: 3, Workers: 1, CacheEntries: cacheEntries,
		Calibration: instantSteps(m, 3), DefaultDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	r.srv = srv
	r.ts = httptest.NewServer(&cluster.InferHandler{Submit: srv.Submit, InputLen: func() int { return r.imgLen }})
	t.Cleanup(r.ts.Close)
	return r
}

// post sends one array text as a request's input and returns the
// answer, once the replica's cache holds the input's walk: a worker
// answers first and publishes after, and the tests below count on the
// next repeat finding it.
func (r *knownReplica) post(t *testing.T, url, envelope string, in []float64, text string) cluster.InferResponse {
	t.Helper()
	ans, err := postInfer(http.DefaultClient, url, []byte(strings.Replace(envelope, "$", text, 1)))
	if err != nil {
		t.Fatalf("%.60s…: %v", text, err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if ent, ok := r.srv.CachePeek(cache.KeyOf(in)); ok && ent.Subnet == 3 {
			return ans
		}
		if time.Now().After(deadline) {
			t.Fatal("a finished walk was never published to the cache")
		}
	}
}

// arrayText writes in as a JSON array, every number in the given
// strconv format and precision, sep between them.
func arrayText(in []float64, format byte, prec int, sep string) string {
	var b strings.Builder
	for i, v := range in {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(strconv.FormatFloat(v, format, prec, 64))
	}
	return "[" + b.String() + "]"
}

// TestKnownTextIsAnsweredUnparsed drives the whole of the change
// through a replica's handler. A body's first sight is parsed and
// walked; the same bytes again — whatever stands around the array — are
// a zero-MAC hit whose numbers were never read (the server's
// InputsKnown counts it, InlineHits says where it was answered); the
// same floats spelled differently are parsed, and are a hit all the
// same. When the cache has forgotten the entry — a second input pushed
// it out of the one-entry cache — the known text is parsed after all,
// re-walked, and answered bitwise as the first time.
func TestKnownTextIsAnsweredUnparsed(t *testing.T) {
	r := newKnownReplica(t, 911, 1)
	in := inputVec(912, r.imgLen)
	text := arrayText(in, 'g', -1, ",")
	post := func(envelope, text string) cluster.InferResponse {
		t.Helper()
		return r.post(t, r.ts.URL, envelope, in, text)
	}
	expect := func(what string, ans cluster.InferResponse, hit bool, known, inline int64, ref []float64) {
		t.Helper()
		if ans.CacheHit != hit || ans.Subnet != 3 || (ans.MACs == 0) != hit {
			t.Fatalf("%s: %+v, want cache_hit %v at rung 3", what, ans, hit)
		}
		if snap := r.srv.Stats(); snap.InputsKnown != known || snap.InlineHits != inline {
			t.Fatalf("%s: %d inputs known and %d inline hits so far, want %d and %d", what, snap.InputsKnown, snap.InlineHits, known, inline)
		}
		if ref != nil && !sameBits(ans.Logits, ref) {
			t.Fatalf("%s: logits %v differ from the first walk's %v", what, ans.Logits, ref)
		}
	}
	const plain = `{"input":$}`
	respelled := arrayText(in, 'e', 20, " , ")
	first := post(plain, text)
	expect("first sight", first, false, 0, 0, nil)
	if ref := ladderLogits(t, buildModel(911), in, 3); !sameBits(first.Logits, ref[3]) {
		t.Fatal("first sight: logits are not the reference walk's")
	}
	expect("same bytes", post(plain, text), true, 1, 1, first.Logits)
	expect("same array, other envelope", post(` {"priority":0,"x":"]","INPUT": $ ,"deadline_ms":1e6}`, text), true, 2, 2, first.Logits)
	expect("respelled, spaced", post(plain, respelled), true, 2, 3, first.Logits)
	expect("respelled again: now a known text too", post(plain, respelled), true, 3, 4, first.Logits)

	other := inputVec(920, r.imgLen)
	r.post(t, r.ts.URL, plain, other, arrayText(other, 'g', -1, ","))
	expect("evicted", post(plain, text), false, 3, 4, first.Logits)
	expect("walked again, cached again", post(plain, text), true, 4, 5, first.Logits)
	if snap := r.srv.Stats(); snap.Submitted != snap.Served+snap.Rejected || snap.CacheEvictions != 2 {
		t.Fatalf("at the end: %+v", snap)
	}
}

// TestKnownTextOfTheWrongLength pins that recognising a text never
// stands in for checking it: an array one element too long is a 400
// the first time and, known by then, a 400 every time after — with the
// cache armed and without.
func TestKnownTextOfTheWrongLength(t *testing.T) {
	for _, cacheEntries := range []int{0, 8} {
		r := newKnownReplica(t, 931, cacheEntries)
		body := []byte(`{"input":` + arrayText(inputVec(932, r.imgLen+1), 'g', -1, ",") + `}`)
		for round := 0; round < 3; round++ {
			resp, err := http.Post(r.ts.URL, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "input length") {
				t.Fatalf("cache %d, round %d: status %d %q, want a 400 naming the input length", cacheEntries, round, resp.StatusCode, msg)
			}
		}
		if snap := r.srv.Stats(); snap.Submitted != 0 || snap.InputsKnown != 0 {
			t.Fatalf("cache %d: a refused input moved counters: submitted %d, known %d", cacheEntries, snap.Submitted, snap.InputsKnown)
		}
	}
}

// TestKnownTextCrossesTheRouterUnparsed pins the hop: a router whose
// handler knows a text forwards it verbatim, keyed for affinity, and
// the replica's handler — which knows it too — answers from its cache;
// neither process parses a float. With Local backends the router has
// no second handler, and the Local reads the text itself when the
// server asks.
func TestKnownTextCrossesTheRouterUnparsed(t *testing.T) {
	r := newKnownReplica(t, 941, 8)
	local := newKnownReplica(t, 941, 8)
	for name, backend := range map[string]cluster.Backend{
		"remote": cluster.NewRemote(r.ts.URL),
		"local":  &cluster.Local{Srv: local.srv, Name: "local"},
	} {
		ro, err := cluster.NewRouter(cluster.RouterConfig{
			Backends: []cluster.Backend{backend}, ProbeInterval: -1, DefaultDeadline: time.Hour, Affinity: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		router := httptest.NewServer(&cluster.InferHandler{Submit: ro.Submit})
		replica := map[string]*knownReplica{"remote": r, "local": local}[name]
		in := inputVec(942, r.imgLen)
		var first cluster.InferResponse
		for round := 0; round < 3; round++ {
			ans := replica.post(t, router.URL, `{"input":$}`, in, arrayText(in, 'g', -1, ","))
			if round == 0 {
				first = ans
			}
			if ans.CacheHit != (round > 0) || !sameBits(ans.Logits, first.Logits) {
				t.Fatalf("%s, round %d: %+v, first was %+v", name, round, ans, first)
			}
		}
		if st := ro.Stats(); st.InputsKnown != 2 || st.AffinityRouted != 3 {
			t.Fatalf("%s: of 3 requests %d crossed the router unparsed and %d were routed by their key, want 2 and 3: %+v",
				name, st.InputsKnown, st.AffinityRouted, st)
		}
		if snap := replica.srv.Stats(); snap.InputsKnown != 2 || snap.InlineHits != 2 {
			t.Fatalf("%s: the replica answered %d requests unparsed and %d before its queue, want 2 and 2", name, snap.InputsKnown, snap.InlineHits)
		}
		router.Close()
		ro.Close()
	}
}
