// Package data generates the synthetic classification workloads that
// stand in for CIFAR-10/CIFAR-100 in this offline reproduction (see
// DESIGN.md §2). Images are low-pass-filtered Gaussian noise — the
// spectral signature of natural images — and labels come from a
// fixed, randomly initialized teacher CNN, so that (a) the task is
// genuinely nonlinear, (b) achievable accuracy grows with model
// capacity, exactly the axis SteppingNet trades against MACs, and
// (c) label noise caps the attainable accuracy in the same regime as
// the paper's numbers. Everything is deterministic in the seed.
package data

import (
	"fmt"
	"math"

	"steppingnet/internal/nn"
	"steppingnet/internal/subnet"
	"steppingnet/internal/tensor"
)

// Dataset is a labelled image set. X has shape [N, C, H, W]; Y holds
// integer class labels.
type Dataset struct {
	X       *tensor.Tensor
	Y       []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Image returns sample i as a [1, C, H, W] view-copy.
func (d *Dataset) Image(i int) *tensor.Tensor {
	shape := d.X.Shape()
	imgLen := shape[1] * shape[2] * shape[3]
	out := tensor.New(1, shape[1], shape[2], shape[3])
	copy(out.Data(), d.X.Data()[i*imgLen:(i+1)*imgLen])
	return out
}

// Batch copies the samples at the given indices into a fresh batch
// tensor and label slice.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	shape := d.X.Shape()
	imgLen := shape[1] * shape[2] * shape[3]
	x := tensor.New(len(indices), shape[1], shape[2], shape[3])
	y := make([]int, len(indices))
	for bi, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("data: batch index %d outside [0,%d)", idx, d.Len()))
		}
		copy(x.Data()[bi*imgLen:(bi+1)*imgLen], d.X.Data()[idx*imgLen:(idx+1)*imgLen])
		y[bi] = d.Y[idx]
	}
	return x, y
}

// Batches cuts the dataset into shuffled mini-batches and calls fn
// for each. The shuffle order is drawn from rng.
func (d *Dataset) Batches(rng *tensor.RNG, batchSize int, fn func(x *tensor.Tensor, y []int)) {
	if batchSize <= 0 {
		panic(fmt.Sprintf("data: batch size %d", batchSize))
	}
	perm := rng.Perm(d.Len())
	for start := 0; start < len(perm); start += batchSize {
		end := start + batchSize
		if end > len(perm) {
			end = len(perm)
		}
		x, y := d.Batch(perm[start:end])
		fn(x, y)
	}
}

// Config describes a synthetic workload.
type Config struct {
	Name       string
	Classes    int
	C, H, W    int
	Train      int     // number of training samples
	Test       int     // number of test samples
	Seed       uint64  // master seed; same seed ⇒ identical dataset
	LabelNoise float64 // fraction of labels replaced uniformly at random
	// TeacherFilters sets the width of the label-generating teacher
	// CNN; wider teachers make harder, more capacity-hungry tasks.
	// Zero selects a default of 8.
	TeacherFilters int
	// Margin rejects ambiguous samples: an image is kept only when
	// the winning standardized logit beats the runner-up by at least
	// this much. Larger margins give cleaner, easier tasks (higher
	// attainable accuracy); zero selects a default of 1.5. Use a
	// small negative value to disable filtering entirely.
	Margin float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("data: need ≥2 classes, got %d", c.Classes)
	case c.C <= 0 || c.H <= 0 || c.W <= 0:
		return fmt.Errorf("data: bad image dims %dx%dx%d", c.C, c.H, c.W)
	case c.Train <= 0 || c.Test <= 0:
		return fmt.Errorf("data: bad sizes train=%d test=%d", c.Train, c.Test)
	case c.LabelNoise < 0 || c.LabelNoise >= 1:
		return fmt.Errorf("data: label noise %g outside [0,1)", c.LabelNoise)
	case c.H%2 != 0 || c.W%2 != 0:
		return fmt.Errorf("data: teacher pools by 2; H, W must be even (got %dx%d)", c.H, c.W)
	}
	return nil
}

// Generate builds the train and test splits.
func Generate(cfg Config) (train, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	lab := newLabeler(cfg, rng.Split(), rng.Split())
	imgRNG := rng.Split()
	noiseRNG := rng.Split()
	train = synthesize(cfg, cfg.Train, lab, imgRNG, noiseRNG)
	test = synthesize(cfg, cfg.Test, lab, imgRNG, noiseRNG)
	return train, test, nil
}

// labeler assigns classes by the teacher CNN's logits, standardized
// per class against calibration statistics. Raw argmax of a randomly
// initialized network is heavily skewed toward whichever class won
// the initialization lottery; standardization makes the synthetic
// class distribution roughly balanced, like CIFAR's.
type labeler struct {
	teacher *nn.Network
	mu, sd  []float64
}

func newLabeler(cfg Config, teacherRNG, calibRNG *tensor.RNG) *labeler {
	l := &labeler{teacher: labelTeacher(cfg, teacherRNG)}
	const calib = 512
	x := tensor.New(calib, cfg.C, cfg.H, cfg.W)
	imgLen := cfg.C * cfg.H * cfg.W
	for i := 0; i < calib; i++ {
		fillNaturalImage(x.Data()[i*imgLen:(i+1)*imgLen], cfg, calibRNG)
	}
	logits := l.teacher.Forward(x, &nn.Context{Subnet: 1})
	c := logits.Dim(1)
	l.mu = make([]float64, c)
	l.sd = make([]float64, c)
	for j := 0; j < c; j++ {
		var sum, ss float64
		for i := 0; i < calib; i++ {
			sum += logits.At(i, j)
		}
		mean := sum / calib
		for i := 0; i < calib; i++ {
			d := logits.At(i, j) - mean
			ss += d * d
		}
		l.mu[j] = mean
		l.sd[j] = math.Sqrt(ss/calib) + 1e-9
	}
	return l
}

// label returns the standardized-argmax class for one logit row and
// the margin to the runner-up.
func (l *labeler) label(row []float64) (class int, margin float64) {
	best, second, bi := math.Inf(-1), math.Inf(-1), 0
	for j, v := range row {
		z := (v - l.mu[j]) / l.sd[j]
		if z > best {
			second = best
			best, bi = z, j
		} else if z > second {
			second = z
		}
	}
	return bi, best - second
}

// labelTeacher builds the frozen CNN that defines the ground-truth
// concept.
func labelTeacher(cfg Config, rng *tensor.RNG) *nn.Network {
	filters := cfg.TeacherFilters
	if filters <= 0 {
		filters = 8
	}
	one := func(u int) *subnet.Assignment { return subnet.NewAssignment(u, 1) }
	g := tensor.ConvGeom{InC: cfg.C, InH: cfg.H, InW: cfg.W, OutC: filters, K: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D(nn.Conv2DConfig{
		Name: "teacher.conv", Geom: g, Rule: nn.RuleIncremental,
		AssignIn: one(cfg.C), Assign: one(filters), Init: rng,
	})
	conv.Bias().Value.FillNormal(rng, 0, 0.1)
	pool := nn.NewMaxPool2D("teacher.pool", filters, cfg.H, cfg.W, 2)
	fcIn := filters * (cfg.H / 2) * (cfg.W / 2)
	fc := nn.NewDense(nn.DenseConfig{
		Name: "teacher.fc", In: fcIn, Out: cfg.Classes, Rule: nn.RuleIncremental,
		AssignIn: one(filters), InRepeat: (cfg.H / 2) * (cfg.W / 2), Assign: one(cfg.Classes), Init: rng,
	})
	return nn.NewNetwork("teacher", conv, nn.NewReLU("teacher.relu"), pool, nn.NewFlatten("teacher.fl"), fc)
}

// synthesize draws n samples by rejection: generate low-pass images
// in chunks, label them with the standardized teacher, keep those
// whose decision margin passes the threshold, then apply label noise.
func synthesize(cfg Config, n int, lab *labeler, imgRNG, noiseRNG *tensor.RNG) *Dataset {
	margin := cfg.Margin
	if margin == 0 {
		margin = 1.5
	}
	x := tensor.New(n, cfg.C, cfg.H, cfg.W)
	y := make([]int, n)
	imgLen := cfg.C * cfg.H * cfg.W
	const chunk = 256
	ctx := &nn.Context{Subnet: 1}
	bx := tensor.New(chunk, cfg.C, cfg.H, cfg.W)

	accepted := 0
	// The margin filter accepts a constant fraction of candidates;
	// the attempt cap only guards against absurd margins.
	for attempts := 0; accepted < n && attempts < 4000; attempts++ {
		for i := 0; i < chunk; i++ {
			fillNaturalImage(bx.Data()[i*imgLen:(i+1)*imgLen], cfg, imgRNG)
		}
		logits := lab.teacher.Forward(bx, ctx)
		c := logits.Dim(1)
		for i := 0; i < chunk && accepted < n; i++ {
			class, m := lab.label(logits.Data()[i*c : (i+1)*c])
			if m < margin {
				continue
			}
			copy(x.Data()[accepted*imgLen:(accepted+1)*imgLen], bx.Data()[i*imgLen:(i+1)*imgLen])
			y[accepted] = class
			accepted++
		}
	}
	if accepted < n {
		panic(fmt.Sprintf("data: margin %g rejects too many samples (%d of %d accepted)", margin, accepted, n))
	}
	for i := range y {
		if noiseRNG.Float64() < cfg.LabelNoise {
			y[i] = noiseRNG.Intn(cfg.Classes)
		}
	}
	return &Dataset{X: x, Y: y, Classes: cfg.Classes}
}

// fillNaturalImage writes a zero-mean, unit-ish-variance low-pass
// random field per channel: iid Gaussian blurred twice with a 3×3
// box filter.
func fillNaturalImage(img []float64, cfg Config, rng *tensor.RNG) {
	h, w := cfg.H, cfg.W
	buf := make([]float64, h*w)
	tmp := make([]float64, h*w)
	for c := 0; c < cfg.C; c++ {
		plane := img[c*h*w : (c+1)*h*w]
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		boxBlur(buf, tmp, h, w)
		boxBlur(tmp, buf, h, w)
		// Renormalize to unit variance so the teacher operates in a
		// consistent regime.
		var mean, ss float64
		for _, v := range buf {
			mean += v
		}
		mean /= float64(len(buf))
		for _, v := range buf {
			ss += (v - mean) * (v - mean)
		}
		std := 1.0
		if ss > 0 {
			std = 1 / (1e-12 + math.Sqrt(ss/float64(len(buf))))
		}
		for i, v := range buf {
			plane[i] = (v - mean) * std
		}
	}
}

func boxBlur(src, dst []float64, h, w int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum, cnt := 0.0, 0
			for dy := -1; dy <= 1; dy++ {
				yy := y + dy
				if yy < 0 || yy >= h {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					xx := x + dx
					if xx < 0 || xx >= w {
						continue
					}
					sum += src[yy*w+xx]
					cnt++
				}
			}
			dst[y*w+x] = sum / float64(cnt)
		}
	}
}
