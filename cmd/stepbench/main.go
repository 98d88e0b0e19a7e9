// Command stepbench regenerates the paper's tables and figures on
// the synthetic workloads and prints them as text tables (-exp), and
// runs and compares the substrate perf baseline (-bench, -compare).
//
// Usage:
//
//	stepbench -exp all -scale quick
//	stepbench -exp table1 -scale full
//	stepbench -exp fig6,reuse -scale tiny
//	stepbench -exp profile
//	stepbench -exp profile -out BENCH_layers.json -label "PR 18"
//	stepbench -bench BENCH_baseline.json
//	stepbench -compare BENCH_baseline.json BENCH_new.json
//	stepbench -compare -strict BENCH_baseline.json BENCH_new.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"steppingnet/internal/experiments"
	"steppingnet/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stepbench: ")
	exp := flag.String("exp", "all", "comma-separated experiments: table1,fig6,fig7,fig8,reuse,profile or all")
	scale := flag.String("scale", "quick", "problem scale: tiny, quick or full")
	csvDir := flag.String("csv", "", "also write machine-readable CSV files into this directory")
	layersOut := flag.String("out", "", "with -exp profile: merge the stage profile into this trajectory file (BENCH_layers.json)")
	label := flag.String("label", "head", "with -out: the snapshot's label; a snapshot with the same label and box is replaced")
	benchOut := flag.String("bench", "", "run the substrate perf benchmarks, write the JSON baseline to this file and exit")
	compare := flag.Bool("compare", false, "compare two baseline JSON files (old new), exit non-zero on regressions")
	update := flag.Bool("update", false, "with -compare: replace the old baseline with the new one after a passing, same-backend comparison")
	strict := flag.Bool("strict", false, "with -compare: also fail on new zero-alloc benchmarks missing from the old baseline (otherwise warn), so added paths cannot dodge the alloc gate")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatalf("-compare needs exactly two baseline files, got %d args", flag.NArg())
		}
		if err := compareBaselines(flag.Arg(0), flag.Arg(1), *update, *strict); err != nil {
			log.Fatalf("compare: %v", err)
		}
		return
	}

	if *benchOut != "" {
		if err := writeBenchBaseline(*benchOut); err != nil {
			log.Fatalf("bench baseline: %v", err)
		}
		log.Printf("wrote %s", *benchOut)
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "tiny":
		sc = experiments.Tiny()
	case "quick":
		sc = experiments.Quick()
	case "full":
		sc = experiments.Full()
	default:
		log.Fatalf("unknown scale %q (want tiny, quick or full)", *scale)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := 0

	run := func(name string, fn func() (renderer, error)) {
		if !all && !want[name] {
			return
		}
		ran++
		start := time.Now()
		r, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(r.Render())
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, r); err != nil {
				log.Fatalf("%s: csv: %v", name, err)
			}
		}
	}

	run("table1", func() (renderer, error) { return experiments.TableI(sc) })
	run("fig6", func() (renderer, error) { return experiments.Fig6(sc) })
	run("fig7", func() (renderer, error) { return experiments.Fig7(sc) })
	run("fig8", func() (renderer, error) { return experiments.Fig8(sc) })
	run("reuse", func() (renderer, error) { return experiments.Reuse(sc) })
	run("profile", func() (renderer, error) {
		res, err := runProfile()
		if err == nil && *layersOut != "" {
			res.Label = *label
			err = res.mergeInto(*layersOut)
		}
		return res, err
	})

	if ran == 0 {
		log.Printf("nothing to run for -exp=%q", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// renderer is what every experiment result implements.
type renderer interface{ Render() string }

// writeCSV exports one experiment result into dir, picking the
// exporter by concrete type; experiments without a CSV shape fall
// back to JSON.
func writeCSV(dir, name string, r renderer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch v := r.(type) {
	case *experiments.TableIResult:
		err = report.TableICSV(f, v)
	case *experiments.Fig6Result:
		err = report.Fig6CSV(f, v)
	case *experiments.Fig7Result:
		err = report.Fig7CSV(f, v)
	case *experiments.Fig8Result:
		err = report.Fig8CSV(f, v)
	default:
		// e.g. the reuse audit: structured JSON is the useful form.
		err = report.WriteJSON(f, v)
	}
	if err != nil {
		return err
	}
	return f.Close()
}
