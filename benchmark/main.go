// Command benchmark is the repository's end-to-end yardstick: it
// builds cmd/stepserve, spawns real replica and router processes on
// loopback ports, drives POST /infer from one generator process sized
// to the box, checks the answers bitwise against an in-process walk,
// and prints every metric by name with its unit. See README.md.
//
//	bash benchmark/run.sh                       # every workload, untraced then traced
//	bash benchmark/run.sh -workload direct_cold -seed 2 -seconds 10 -trace 0
//	bash benchmark/run.sh -smoke                # 2 s per workload, checks only
//	bash benchmark/run.sh -agree                # the suite twice; fails where the two disagree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"steppingnet/internal/tensor"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs and arrival schedule")
	seconds := flag.Float64("seconds", 10, "length of the measured run")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; -1: both")
	smoke := flag.Bool("smoke", false, "2 s per workload: checks only, the numbers mean little")
	agree := flag.Bool("agree", false, "run every untraced workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	if *smoke {
		*seconds = 2
	}

	// Children die with the benchmark on every exit path: return,
	// failed check, panic, SIGINT/SIGTERM.
	defer stopAllChildren()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, "benchmark: panic:", p)
			code = 2
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()

	var wls []*workload
	if *name == "all" {
		for i := range workloadTable {
			wls = append(wls, &workloadTable[i])
		}
	} else if wl := workloadByName(*name); wl != nil {
		wls = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("box: nproc %d, GOMAXPROCS %d, tensor backend %s, %s, %d generator connections\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.Backend(), runtime.Version(), connections())

	cfg := runConfig{seed: *seed, span: time.Duration(*seconds * float64(time.Second)), outDir: outDir}
	ok := true
	for _, wl := range wls {
		cfg.wl = wl
		if wl.topo != topoLib && cfg.stepserve == "" {
			if cfg.stepserve, err = buildStepserve(root); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
		if *agree {
			ok = runAgree(cfg) && ok
			continue
		}
		for _, traced := range []bool{false, true} {
			if *trace == 0 && traced || *trace == 1 && !traced {
				continue
			}
			cfg.traced = traced
			res, err := run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			if err := report(cfg, res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			ok = ok && res.correct
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// repoRoot finds the repository from the working directory: the
// root itself (benchmark/run.sh) or the benchmark directory (go run .).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "stepserve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/stepserve not found: run from the repository root or from benchmark/")
}

// buildStepserve compiles the server the benchmark measures, from the
// checkout's source, into .bench_build/.
func buildStepserve(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "stepserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stepserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/stepserve: %w", err)
	}
	return bin, nil
}

// report prints one run: every metric of the list the run owes, by
// name with its unit, then the one-line JSON object the driver reads.
// A metric the run did not produce, or produced without being in the
// list, is an error: the vocabulary in spec.go is exact.
func report(cfg runConfig, res *result) error {
	specs, kind := endToEnd, "end-to-end, tracing off"
	if cfg.traced {
		specs, kind = perLayer, "per-layer, traced run"
	}
	fmt.Printf("\n== %s  seed %d  %.1f s  (%s)\n", cfg.wl.name, cfg.seed, cfg.span.Seconds(), kind)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, s := range specs {
		v, ok := res.metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = value{v, s.Unit}
		fmt.Printf("%-34s %16.6f %s\n", s.Name, v, s.Unit)
	}
	for k := range res.metrics {
		if _, ok := out[k]; !ok {
			return fmt.Errorf("metric %s is not in the benchmark's vocabulary", k)
		}
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("outputs_ok %v   attempted %d   failed %d\n", res.correct, res.attempted, res.failed)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAgree runs one workload twice, untraced, and reports every
// end-to-end metric whose two values differ, either way, by more than
// the metric's bound.
func runAgree(cfg runConfig) bool {
	cfg.traced = false
	var runs [2]*result
	for i := range runs {
		res, err := run(cfg)
		if err == nil {
			err = report(cfg, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.wl.name, err)
			return false
		}
		runs[i] = res
	}
	ok := runs[0].correct && runs[1].correct
	fmt.Printf("\n== %s  agreement of two runs\n", cfg.wl.name)
	for _, s := range endToEnd {
		a, b := runs[0].metrics[s.Name], runs[1].metrics[s.Name]
		worse := (b - a) / a
		if s.Better == "higher" {
			worse = -worse
		}
		verdict := "agree"
		if math.Abs(worse) > s.Bound {
			verdict, ok = "DISAGREE", false
		}
		fmt.Printf("%-20s %14.6f %14.6f  second run worse by %+7.2f%% (bound %4.1f%%)  %s\n", s.Name, a, b, 100*worse, 100*s.Bound, verdict)
	}
	return ok
}
