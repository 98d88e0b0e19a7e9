// Package experiments regenerates every table and figure of the
// paper's evaluation (§IV) on the synthetic workloads: Table I
// (per-subnet accuracy and MAC share), Fig. 6 (SteppingNet vs the
// slimmable and any-width baselines), Fig. 7 (expansion-ratio sweep),
// Fig. 8 (ablation of LR suppression and knowledge distillation),
// plus a computational-reuse audit backing the §II/§III reuse claims.
// Each experiment returns a structured result with a Render method
// that prints the same rows/series the paper reports.
package experiments

import (
	"steppingnet/internal/data"
	"steppingnet/internal/models"
)

// Scale selects the problem size. The paper's absolute scale (50k
// CIFAR images, 300 construction iterations, GPU-days) is far beyond
// a CPU-only reproduction; Scale lets the same harness run as a
// seconds-long benchmark (Quick), a minutes-long CLI run (Full), or
// a CI-sized smoke test (Tiny) without changing any algorithmic
// parameter that the paper fixes (α growth 1.5, β 0.9, γ 0.4, prune
// threshold 1e-5, budget fractions, expansion ratios).
type Scale struct {
	Name         string
	TrainSamples int
	TestSamples  int
	// Classes10 / Classes100 are the class counts of the synthetic
	// stand-ins for Cifar10 / Cifar100.
	Classes10, Classes100 int
	ImgHW                 int

	TeacherEpochs  int
	DistillEpochs  int
	Iterations     int // construction iterations N_t
	BatchesPerIter int // m
	BaselineEpochs int
	BatchSize      int

	// Expansions is the Fig. 7 sweep (paper: 1.0–2.0 in steps of 0.2).
	Expansions []float64
	Seed       uint64
}

// Tiny is the CI/unit-test scale: a couple of seconds in total.
func Tiny() Scale {
	return Scale{
		Name: "tiny", TrainSamples: 192, TestSamples: 96,
		Classes10: 4, Classes100: 6, ImgHW: 8,
		TeacherEpochs: 2, DistillEpochs: 2, Iterations: 8, BatchesPerIter: 1,
		BaselineEpochs: 2, BatchSize: 16,
		Expansions: []float64{1.0, 1.5, 2.0}, Seed: 1,
	}
}

// Quick is the benchmark scale: each experiment finishes in seconds
// to a few minutes while preserving every qualitative trend.
func Quick() Scale {
	return Scale{
		Name: "quick", TrainSamples: 1536, TestSamples: 512,
		Classes10: 10, Classes100: 15, ImgHW: 12,
		TeacherEpochs: 10, DistillEpochs: 7, Iterations: 16, BatchesPerIter: 2,
		BaselineEpochs: 10, BatchSize: 32,
		Expansions: []float64{1.0, 1.4, 1.8}, Seed: 1,
	}
}

// Full is the largest scale, `stepbench -exp all -scale full`.
func Full() Scale {
	return Scale{
		Name: "full", TrainSamples: 2048, TestSamples: 768,
		Classes10: 10, Classes100: 25, ImgHW: 12,
		TeacherEpochs: 10, DistillEpochs: 8, Iterations: 24, BatchesPerIter: 2,
		BaselineEpochs: 10, BatchSize: 32,
		Expansions: []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}, Seed: 1,
	}
}

// Workload couples a network topology with its dataset, budgets and
// expansion ratio as in Table I.
type Workload struct {
	Name      string
	Build     models.Builder
	Data      data.Config
	Budgets   []float64
	Expansion float64
}

// Workloads returns the three Table-I rows at the given scale:
// LeNet-3C1L / synth-Cifar10, LeNet-5 / synth-Cifar10 and VGG-16 /
// synth-Cifar100, with the paper's budget fractions and expansion
// ratios (§IV).
func Workloads(sc Scale) []Workload {
	cifar10 := data.Config{
		Name: "synth-cifar10", Classes: sc.Classes10, C: 3, H: sc.ImgHW, W: sc.ImgHW,
		Train: sc.TrainSamples, Test: sc.TestSamples, Seed: sc.Seed + 10, LabelNoise: 0.04,
	}
	cifar100 := data.Config{
		Name: "synth-cifar100", Classes: sc.Classes100, C: 3, H: sc.ImgHW, W: sc.ImgHW,
		Train: sc.TrainSamples, Test: sc.TestSamples, Seed: sc.Seed + 100, LabelNoise: 0.04,
	}
	return []Workload{
		{
			Name: "LeNet-3C1L/Cifar10", Build: models.LeNet3C1L, Data: cifar10,
			Budgets: []float64{0.10, 0.30, 0.50, 0.85}, Expansion: 1.8,
		},
		{
			Name: "LeNet-5/Cifar10", Build: models.LeNet5, Data: cifar10,
			Budgets: []float64{0.15, 0.30, 0.60, 0.85}, Expansion: 2.0,
		},
		{
			Name: "VGG-16/Cifar100", Build: models.VGG16, Data: cifar100,
			Budgets: []float64{0.20, 0.40, 0.50, 0.70}, Expansion: 1.8,
		},
	}
}
