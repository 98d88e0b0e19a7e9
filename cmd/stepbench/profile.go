package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"steppingnet/internal/infer"
	"steppingnet/internal/tensor"
)

// profileWalks is how many ladder walks the stage profile takes its
// medians over; the inputs cycle through a few images so the branch
// predictor cannot learn one.
const profileWalks = 400

// profileRow is one plan stage at one rung of the batch-1 walk.
type profileRow struct {
	Stage string  `json:"stage"`
	Kind  string  `json:"kind"`
	Rung  int     `json:"rung"`
	Us    float64 `json:"us"`            // median over the walks
	MACs  int64   `json:"macs"`          // exact, from the plan
	GMACs float64 `json:"gmacs_per_s"`   // MACs / Us
	Share float64 `json:"share_of_step"` // Us / the step's stages summed
}

// profileResult is `stepbench -exp profile`: where a batch-1 ladder
// walk of the served benchmark model spends its time, one row per plan
// stage per rung, with the box it was taken on.
type profileResult struct {
	Label   string       `json:"label"` // which code was profiled; set by -label when the result is kept
	NumCPU  int          `json:"num_cpu"`
	Backend string       `json:"backend"`
	Workers int          `json:"workers"`
	Walks   int          `json:"walks"`
	WalkUs  float64      `json:"walk_us"` // the rows' µs summed: one four-rung walk
	Rows    []profileRow `json:"rows"`
}

// layersFile is BENCH_layers.json: the stage profile's trajectory, one
// snapshot per label and box (num_cpu, backend, workers), so "where
// does the walk's time go" has a history next to the code.
type layersFile struct {
	Snapshots []*profileResult `json:"snapshots"`
}

// mergeInto writes r into the trajectory file at path, replacing the
// snapshot with its label and box if there is one, appending otherwise.
func (r *profileResult) mergeInto(path string) error {
	var f layersFile
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &f)
	} else if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	at := slices.IndexFunc(f.Snapshots, func(s *profileResult) bool {
		return s.Label == r.Label && s.NumCPU == r.NumCPU && s.Backend == r.Backend && s.Workers == r.Workers
	})
	if at < 0 {
		f.Snapshots = append(f.Snapshots, r)
	} else {
		f.Snapshots[at] = r
	}
	if data, err = json.MarshalIndent(f, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runProfile walks the served model up its ladder with the engine's
// per-stage timer installed.
func runProfile() (*profileResult, error) {
	const rungs = 4
	m := newServeModel()
	e := infer.NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	stages := e.Stages()
	samples := make([][]time.Duration, len(stages)*rungs)
	for i := range samples {
		samples[i] = make([]time.Duration, 0, profileWalks)
	}
	e.StageTimer = func(stage, subnet int, d time.Duration) {
		i := stage*rungs + subnet - 1
		samples[i] = append(samples[i], d)
	}
	inputs := make([]*tensor.Tensor, 16)
	rng := tensor.NewRNG(4)
	for i := range inputs {
		inputs[i] = tensor.New(1, m.InC, m.InH, m.InW)
		inputs[i].FillNormal(rng, 0, 1)
	}
	for w := 0; w < profileWalks; w++ {
		e.Reset(inputs[w%len(inputs)])
		for s := 1; s <= rungs; s++ {
			if _, _, err := e.Step(s); err != nil {
				return nil, err
			}
		}
	}
	res := &profileResult{NumCPU: runtime.NumCPU(), Backend: tensor.Backend(), Workers: e.Workers, Walks: profileWalks}
	for s := 1; s <= rungs; s++ {
		first := len(res.Rows)
		var step float64
		for i, st := range stages {
			ds := samples[i*rungs+s-1]
			sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
			us := float64(ds[len(ds)/2]) / 1e3
			step += us
			row := profileRow{Stage: st.Name, Kind: st.Kind, Rung: s, Us: us, MACs: st.StepMACs[s-1]}
			if us > 0 {
				row.GMACs = float64(row.MACs) / us / 1e3
			}
			res.Rows = append(res.Rows, row)
		}
		for i := first; i < len(res.Rows); i++ {
			res.Rows[i].Share = res.Rows[i].Us / step
		}
		res.WalkUs += step
	}
	return res, nil
}

// Render prints the table.
func (r *profileResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Step-plan profile: batch-1 ladder walk, %.1f µs, median of %d walks (num_cpu=%d backend=%s workers=%d)\n",
		r.WalkUs, r.Walks, r.NumCPU, r.Backend, r.Workers)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rung\tstage\tkind\tµs\tMACs\tGMAC/s\tshare of step")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\t%d\t%.2f\t%.0f%%\n",
			row.Rung, row.Stage, row.Kind, row.Us, row.MACs, row.GMACs, row.Share*100)
	}
	tw.Flush()
	return b.String()
}
