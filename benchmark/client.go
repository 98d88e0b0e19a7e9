package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The wire fields the benchmark reads (see internal/cluster/wire.go,
// serve.Snapshot and cluster.RouterStats). Declared here, not
// imported, so the load path depends on the JSON contract only.
type inferAnswer struct {
	Subnet      int       `json:"subnet"`
	Pred        int       `json:"pred"`
	Logits      []float64 `json:"logits"`
	MACs        int64     `json:"macs"`
	DeadlineMet bool      `json:"deadline_met"`
	QueueWaitMs float64   `json:"queue_wait_ms"`
	LatencyMs   float64   `json:"latency_ms"`
	CacheHit    bool      `json:"cache_hit"`
	Resumed     bool      `json:"resumed"`
}

type serveStats struct {
	Refreshes      int64     `json:"refreshes"`
	CacheEntries   int       `json:"cache_entries"`
	CacheBytes     int64     `json:"cache_bytes"`
	CacheEvictions int64     `json:"cache_evictions"`
	StepTimeMs     []float64 `json:"step_time_ms"`
}

type routerStats struct {
	Available       int   `json:"available"`
	Retries         int64 `json:"retries"`
	AffinityRouted  int64 `json:"affinity_routed"`
	AffinitySpilled int64 `json:"affinity_spilled"`
	Replicas        []struct {
		TransportErrors int64 `json:"transport_errors"`
	} `json:"replicas"`
}

// sampleEvery is the output check's sampling step: one answer in 64
// is kept whole and compared bitwise against an in-process walk.
const sampleEvery = 64

// rec is the client's record of one request.
type rec struct {
	idx       int
	input     int
	tail      int
	ok        bool          // 200 with a decodable answer
	status    int           // HTTP status; 0 for a transport error
	at        time.Duration // offset of the start (open loop: the due time) into the run
	wall      time.Duration // client wall clock, from at to the last byte of the answer
	late      time.Duration // open loop: how late the generator released the request
	reqBytes  int
	respBytes int
	ans       inferAnswer // Logits kept only on sampled requests
}

// connections is how many connections the generator drives: the
// workloads are specified at 2, and never more than the box has CPUs.
func connections() int { return min(2, runtime.NumCPU()) }

// conn is one keep-alive connection with its reusable buffers.
type conn struct {
	client *http.Client
	url    string
	body   []byte
	resp   bytes.Buffer
}

func newConn(target string) *conn {
	return &conn{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url:    target + "/infer",
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// send posts request (input, tail) and fills r. The clock stops when
// the last byte of the answer has been read; decoding is the client's
// own work and is not counted.
func (c *conn) send(g *generator, r *rec, from time.Time) {
	c.body = g.appendBody(c.body[:0], r.input, r.tail)
	r.reqBytes = len(c.body)
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(c.body))
	if err != nil {
		r.wall = time.Since(from)
		return
	}
	c.resp.Reset()
	_, err = io.Copy(&c.resp, resp.Body)
	resp.Body.Close()
	r.wall = time.Since(from)
	r.status = resp.StatusCode
	r.respBytes = c.resp.Len()
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	r.ans = inferAnswer{}
	if json.Unmarshal(c.resp.Bytes(), &r.ans) != nil || r.ans.Subnet < 1 || len(r.ans.Logits) == 0 {
		return
	}
	r.ok = true
	if r.idx%sampleEvery != 0 {
		r.ans.Logits = nil
	}
}

// closedLoop drives the target from every connection, each sending its
// next request as soon as the previous answer arrived. It sends
// requests 0..count-1 of the stream when count > 0, and otherwise
// keeps going until span has passed.
func closedLoop(g *generator, target string, stream uint64, count int, span time.Duration) []rec {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([][]rec, connections())
	start := time.Now()
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(target)
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				now := time.Now()
				if count > 0 && i >= count || count == 0 && now.Sub(start) >= span {
					return
				}
				r := rec{idx: i, at: now.Sub(start)}
				r.input, r.tail = g.pick(stream, i)
				c.send(g, &r, now)
				per[w] = append(per[w], r)
			}
		}()
	}
	wg.Wait()
	return merge(per)
}

// spinBeforeDue is how long before a request is due the open-loop
// dispatcher stops sleeping and starts spinning.
const spinBeforeDue = 100 * time.Microsecond

// openLoop releases the measured stream's requests on the generator's Poisson
// schedule whether or not earlier ones have been answered, and times
// each from the moment it was due. A released request waits for a free
// connection; that wait is part of its latency, not of the
// generator's lateness.
func openLoop(g *generator, target string, span time.Duration) []rec {
	due := g.arrivals(span)
	type job struct {
		i    int
		late time.Duration
	}
	jobs := make(chan job, len(due)) // holds the whole schedule, so the dispatcher never blocks
	var wg sync.WaitGroup
	per := make([][]rec, connections())
	start := time.Now()
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(target)
			defer c.close()
			for j := range jobs {
				r := rec{idx: j.i, at: due[j.i], late: j.late}
				r.input, r.tail = g.pick(streamRun, j.i)
				c.send(g, &r, start.Add(due[j.i]))
				per[w] = append(per[w], r)
			}
		}()
	}
	// The dispatcher keeps its own OS thread and sleeps in the kernel:
	// the Go runtime's timers wake up to a millisecond late, nanosleep
	// some 0.1 ms. It stops short of the due time and spins the rest.
	runtime.LockOSThread()
	for i, d := range due {
		if wait := time.Until(start.Add(d)) - spinBeforeDue; wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only lengthens the spin
		}
		for time.Since(start) < d {
		}
		jobs <- job{i, time.Since(start) - d}
	}
	runtime.UnlockOSThread()
	close(jobs)
	wg.Wait()
	return merge(per)
}

func merge(per [][]rec) []rec {
	var all []rec
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// warmUp sends the fixed warm-up prefix of the workload and fails on
// the first request that does not come back whole: a stack that cannot
// answer its warm-up is not worth measuring. A 503 is the service's
// own refusal of a deadline it cannot meet, and is an answer.
func warmUp(g *generator, target string, count int) error {
	for _, r := range closedLoop(g, target, streamWarm, count, 0) {
		if !r.ok && r.status != http.StatusServiceUnavailable {
			return fmt.Errorf("warm-up request %d failed (HTTP status %d)", r.idx, r.status)
		}
	}
	return nil
}
