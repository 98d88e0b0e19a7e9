package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The served model and every stepserve flag the benchmark sets; all
// other flags keep their defaults. The in-process replay (layers.go)
// and the output check (check.go) rebuild the same model from these.
const (
	serveModel = "lenet3c1l"
	serveSeed  = 1
	serveCache = 256
)

// children tracks every process the benchmark has started, so any
// exit path — normal, failed check, panic or signal — can stop them.
var children struct {
	sync.Mutex
	procs []*proc
}

// proc is one spawned stepserve process.
type proc struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed when Wait has returned
}

// freePort asks the kernel for an unused loopback port. stepserve
// cannot report a port it picked itself, so the benchmark picks.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts one stepserve process on a fresh loopback port with
// its stderr captured under the output directory.
func spawn(bin, outDir, label string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(outDir, label+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", label, err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a SIGTERM exit status is expected
		close(p.done)
	}()
	children.Lock()
	children.procs = append(children.procs, p)
	children.Unlock()
	return p, nil
}

// stop sends SIGTERM, waits for the process to end (SIGKILL after 5 s)
// and closes its log. Safe to call more than once.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// stopAllChildren stops every process still tracked.
func stopAllChildren() {
	children.Lock()
	procs := children.procs
	children.procs = nil
	children.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// waitUntil polls cond every 5 ms until it holds or the timeout ends.
func waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// getJSON fetches url and decodes the JSON answer into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// healthy reports whether GET /healthz answers 200.
func healthy(base string) bool {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stack is the set of server processes one workload runs against.
type stack struct {
	target   string  // where the load goes: the replica, or the router
	replicas []*proc // the model-serving processes
	router   *proc   // nil for the direct topology
}

func (s *stack) procs() []*proc {
	if s.router != nil {
		return append([]*proc{s.router}, s.replicas...)
	}
	return s.replicas
}

// startStack spawns fresh processes for the topology and waits until
// they accept work: /healthz 200 on every replica, and for the router
// every replica admitted.
func startStack(topo topology, bin, outDir, label string) (*stack, error) {
	s := &stack{}
	nRep := 1
	if topo == topoRouted {
		nRep = 2
	}
	for i := 0; i < nRep; i++ {
		p, err := spawn(bin, outDir, fmt.Sprintf("%s-replica%d", label, i),
			"-model", serveModel, "-seed", strconv.Itoa(serveSeed), "-cache", strconv.Itoa(serveCache))
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, p)
	}
	for _, p := range s.replicas {
		if err := waitUntil(30*time.Second, p.url+"/healthz", func() bool { return healthy(p.url) }); err != nil {
			return nil, err
		}
	}
	s.target = s.replicas[0].url
	if topo == topoRouted {
		urls := make([]string, nRep)
		for i, p := range s.replicas {
			urls[i] = p.url
		}
		r, err := spawn(bin, outDir, label+"-router", "-route", strings.Join(urls, ","), "-affinity")
		if err != nil {
			return nil, err
		}
		s.router, s.target = r, r.url
		admitted := func() bool {
			var st routerStats
			return getJSON(r.url+"/stats", &st) == nil && st.Available == nRep
		}
		if err := waitUntil(30*time.Second, "router to admit its replicas", admitted); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// stop ends every process of the stack.
func (s *stack) stop() {
	for _, p := range s.procs() {
		p.stop()
	}
}

// cpuSeconds returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks of 1/100 s on every Linux port Go has).
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB returns a process's high-water resident set (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sumOver adds up one per-process reading (cpuSeconds, peakRSSMB)
// over processes.
func sumOver(pids []int, read func(pid int) (float64, error)) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		v, err := read(pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func (s *stack) pids() []int {
	var pids []int
	for _, p := range s.procs() {
		pids = append(pids, p.cmd.Process.Pid)
	}
	return pids
}
