package main

import (
	"math"
	"math/rand"
	"strconv"
	"time"
)

// Input geometry of the served model (stepserve defaults: 3 channels,
// -img 16) and the size of the pool of distinct inputs the "unique"
// traffic cycles through. The pool is far larger than any cache in
// play (256 entries per replica), so by the time an input recurs its
// entry has long been evicted: every such request is a cache miss.
const (
	imgC       = 3
	imgHW      = 16
	imgLen     = imgC * imgHW * imgHW
	uniquePool = 4096
	probePool  = 160 // inputs no stream draws: the checks' probes find them in no cache
	libPool    = 1024
)

// Request streams of one seed. Each is an independent pure function
// of (seed, stream, index), so concurrent connections can draw
// requests by index without sharing generator state.
const (
	streamWarm uint64 = iota + 1
	streamRun
	streamArrivals
)

type topology int

const (
	topoDirect topology = iota // one replica
	topoRouted                 // router -affinity over two replicas
	topoLib                    // in-process engine, no HTTP
)

// workload is one traffic mix. The zero deadline list means the fixed
// 50 ms deadline of the closed-loop workloads.
type workload struct {
	name     string
	topo     topology
	hotKeys  int       // size of the hot pool (0: no repeats)
	hotShare float64   // share of requests drawn from the hot pool
	zipf     bool      // hot keys drawn zipf(1) instead of uniformly
	deadline []float64 // deadlines in ms, drawn uniformly
	hiShare  float64   // share of requests sent at priority 1
	openRate float64   // >0: open loop with Poisson arrivals at this rate
}

var workloadTable = []workload{
	{name: "direct_cold", topo: topoDirect, deadline: []float64{50}},
	{name: "direct_repeat", topo: topoDirect, hotKeys: 64, hotShare: 1, deadline: []float64{50}},
	{name: "deadline_open", topo: topoDirect, deadline: []float64{0.4, 0.6, 0.9, 1.4, 2.5, 6}, hiShare: 0.25, openRate: 600},
	{name: "routed_repeat", topo: topoRouted, hotKeys: 128, hotShare: 0.7, zipf: true, deadline: []float64{50}},
	{name: "lib_batch8", topo: topoLib},
}

func workloadByName(name string) *workload {
	for i := range workloadTable {
		if workloadTable[i].name == name {
			return &workloadTable[i]
		}
	}
	return nil
}

// generator makes every input of a run from the seed. Inputs are
// standard-normal images; a request body is the input's pre-encoded
// JSON head plus one of a few pre-encoded deadline/priority tails, so
// the generator spends no time formatting floats while it measures.
type generator struct {
	wl      *workload
	seed    uint64
	inputs  [][]float64 // hot keys first, then the unique cycle, then the probe inputs
	heads   [][]byte    // `{"input":[v,v,…` per input
	tails   []tail      // one per (deadline, priority), then the probe tail
	zipfCDF []float64
}

// tail is the pre-encoded end of a request body,
// `],"deadline_ms":d,"priority":p}`, with the deadline it carries.
type tail struct {
	json       []byte
	deadlineMs float64
}

// probeDeadlineMs is a deadline no answer can meet. The service still
// walks such a request to its narrowest rung, which is how the
// cross-path check gets a resumable entry below the top rung.
const probeDeadlineMs = 0.001

func makeTail(deadlineMs float64, priority int) tail {
	t := []byte(`],"deadline_ms":`)
	t = strconv.AppendFloat(t, deadlineMs, 'g', -1, 64)
	t = append(t, `,"priority":`...)
	t = strconv.AppendInt(t, int64(priority), 10)
	return tail{append(t, '}'), deadlineMs}
}

func newGenerator(wl *workload, seed uint64) *generator {
	g := &generator{wl: wl, seed: seed}
	n := wl.hotKeys + uniquePool + probePool
	if wl.topo == topoLib {
		n = libPool
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	g.inputs = make([][]float64, n)
	for i := range g.inputs {
		x := make([]float64, imgLen)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		g.inputs[i] = x
	}
	if wl.topo == topoLib {
		return g
	}
	g.heads = make([][]byte, n)
	for i, x := range g.inputs {
		b := make([]byte, 0, imgLen*20)
		b = append(b, `{"input":[`...)
		for j, v := range x {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		g.heads[i] = b
	}
	for _, d := range wl.deadline {
		g.tails = append(g.tails, makeTail(d, 0), makeTail(d, 1))
	}
	g.tails = append(g.tails, makeTail(probeDeadlineMs, 0))
	if wl.zipf {
		g.zipfCDF = make([]float64, wl.hotKeys)
		sum := 0.0
		for k := range g.zipfCDF {
			sum += 1 / float64(k+1)
			g.zipfCDF[k] = sum
		}
		for k := range g.zipfCDF {
			g.zipfCDF[k] /= sum
		}
	}
	return g
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns the k-th uniform [0,1) variate of request i of a stream.
func (g *generator) draw(stream uint64, i int, k uint64) float64 {
	h := mix(mix(g.seed)^mix(stream<<48^uint64(i))) + k
	return float64(mix(h)>>11) / (1 << 53)
}

// pick chooses request i of a stream: the index of its input and of
// its deadline/priority tail. The warm-up stream first sends every
// hot key once, so the measured run starts with the hot pool cached,
// and walks the unique cycle half a pool away from the measured run.
func (g *generator) pick(stream uint64, i int) (input, tail int) {
	wl := g.wl
	d := int(g.draw(stream, i, 1) * float64(len(wl.deadline)))
	p := 0
	if g.draw(stream, i, 2) < wl.hiShare {
		p = 1
	}
	tail = d*2 + p
	offset := 0
	if stream == streamWarm {
		if i < wl.hotKeys {
			return i, tail
		}
		offset = uniquePool / 2
	}
	if g.draw(stream, i, 3) < wl.hotShare {
		u := g.draw(stream, i, 4)
		if wl.zipf {
			k := 0
			for k < len(g.zipfCDF)-1 && g.zipfCDF[k] < u {
				k++
			}
			return k, tail
		}
		return int(u * float64(wl.hotKeys)), tail
	}
	return wl.hotKeys + (i+offset)%uniquePool, tail
}

// probeTail is the index of the unmeetable-deadline tail, looseTail
// that of the workload's most generous deadline, and probeInput the
// index of the k-th probe input.
func (g *generator) probeTail() int { return len(g.tails) - 1 }
func (g *generator) looseTail() int { return len(g.tails) - 3 }
func (g *generator) probeInput(k int) int {
	return g.wl.hotKeys + uniquePool + k%probePool
}

// appendBody appends the JSON body of a request to buf.
func (g *generator) appendBody(buf []byte, input, tail int) []byte {
	buf = append(buf, g.heads[input]...)
	return append(buf, g.tails[tail].json...)
}

// arrivals returns the due offsets of the open-loop run: a Poisson
// process at the workload's rate, cut at span.
func (g *generator) arrivals(span time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for i := 0; ; i++ {
		t += -math.Log(1-g.draw(streamArrivals, i, 0)) / g.wl.openRate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}
