package main

import (
	"fmt"
	"math"
	"time"

	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

const ladderRungs = 4 // stepserve -subnets default

// buildServedModel rebuilds, in process, the model a stepserve replica
// serves with its default flags and -seed serveSeed: models.ByName
// with the default geometry, then the seeded spread of units over the
// ladder (cmd/stepserve buildServeModel without -train).
func buildServedModel() (*models.Model, error) {
	build, err := models.ByName(serveModel)
	if err != nil {
		return nil, err
	}
	m := build(models.Options{
		Classes: 10, InC: imgC, InH: imgHW, InW: imgHW,
		Expansion: 1.6, Subnets: ladderRungs, Rule: nn.RuleIncremental, Seed: serveSeed,
	})
	r := tensor.NewRNG(serveSeed ^ 0x5EED5)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(ladderRungs))
		}
	}
	return m, nil
}

// reference answers "what must the service say for this input at this
// rung" by walking a serial in-process engine. Walks are memoised per
// input, so a hot pool is walked once.
type reference struct {
	g       *generator
	eng     *infer.Engine
	x       *tensor.Tensor
	logits  map[int][ladderRungs][]float64
	cumMACs [ladderRungs]int64 // MACs of a cold walk to each rung
}

func newReference(g *generator) (*reference, error) {
	m, err := buildServedModel()
	if err != nil {
		return nil, err
	}
	e := infer.NewEngine(m.Net)
	e.Workers = 1
	return &reference{
		g: g, eng: e, x: tensor.New(1, imgC, imgHW, imgHW),
		logits: map[int][ladderRungs][]float64{},
	}, nil
}

func (ref *reference) close() { ref.eng.Close() }

// walk returns the logits of every rung for one input.
func (ref *reference) walk(input int) ([ladderRungs][]float64, error) {
	if l, ok := ref.logits[input]; ok {
		return l, nil
	}
	var l [ladderRungs][]float64
	copy(ref.x.Data(), ref.g.inputs[input])
	ref.eng.Reset(ref.x)
	var cum int64
	for s := 1; s <= ladderRungs; s++ {
		out, macs, err := ref.eng.Step(s)
		if err != nil {
			return l, err
		}
		cum += macs
		ref.cumMACs[s-1] = cum
		l[s-1] = append([]float64(nil), out.Data()...)
	}
	ref.logits[input] = l
	return l, nil
}

// checkAnswer compares one whole answer with the reference: logits
// bitwise equal to the in-process walk to the answered rung (so cold,
// cached, resumed and routed answers for one input and rung are all
// equal to each other), pred the argmax, and MACs the ladder's
// cumulative cost for a cold walk and 0 for a cache hit.
func (ref *reference) checkAnswer(input int, a *inferAnswer) error {
	if a.Subnet < 1 || a.Subnet > ladderRungs {
		return fmt.Errorf("rung %d outside the ladder", a.Subnet)
	}
	want, err := ref.walk(input)
	if err != nil {
		return err
	}
	w := want[a.Subnet-1]
	if len(a.Logits) != len(w) {
		return fmt.Errorf("%d logits, want %d", len(a.Logits), len(w))
	}
	argmax := 0
	for j, v := range a.Logits {
		if math.Float64bits(v) != math.Float64bits(w[j]) {
			return fmt.Errorf("logit %d at rung %d is %v, in-process walk gives %v", j, a.Subnet, v, w[j])
		}
		if v > a.Logits[argmax] {
			argmax = j
		}
	}
	if a.Pred != argmax {
		return fmt.Errorf("pred %d is not the argmax %d", a.Pred, argmax)
	}
	switch {
	case a.CacheHit && a.MACs != 0:
		return fmt.Errorf("cache hit reports %d MACs", a.MACs)
	case !a.CacheHit && !a.Resumed && a.MACs != ref.cumMACs[a.Subnet-1]:
		return fmt.Errorf("cold walk to rung %d reports %d MACs, ladder says %d", a.Subnet, a.MACs, ref.cumMACs[a.Subnet-1])
	}
	return nil
}

// checkRecords checks every sampled answer of a run and returns how
// many it checked.
func (ref *reference) checkRecords(recs []rec) (int, error) {
	n := 0
	for i := range recs {
		r := &recs[i]
		if !r.ok || r.ans.Logits == nil {
			continue
		}
		if err := ref.checkAnswer(r.input, &r.ans); err != nil {
			return n, fmt.Errorf("request %d (input %d): %w", r.idx, r.input, err)
		}
		n++
	}
	return n, nil
}

// crossPaths sends one fresh input down every path the service has —
// a cold walk cut short by an already-missed deadline, the resumed
// climb of the same input under a generous one, and the cached repeat
// — and checks each answer against the reference. It returns the
// paths it saw, for the report.
func (ref *reference) crossPaths(target string) (string, error) {
	c := newConn(target)
	defer c.close()
	input := ref.g.probeInput(0)
	tight, loose := ref.g.probeTail(), ref.g.looseTail()
	seen := ""
	for step, tail := range []int{tight, loose, loose} {
		r := rec{idx: 0, input: input, tail: tail}
		c.send(ref.g, &r, time.Now())
		if !r.ok {
			return seen, fmt.Errorf("cross-path probe %d failed (HTTP status %d)", step, r.status)
		}
		if err := ref.checkAnswer(input, &r.ans); err != nil {
			return seen, fmt.Errorf("cross-path probe %d: %w", step, err)
		}
		switch {
		case r.ans.CacheHit:
			seen += fmt.Sprintf(" cached@%d", r.ans.Subnet)
		case r.ans.Resumed:
			seen += fmt.Sprintf(" resumed@%d", r.ans.Subnet)
		default:
			seen += fmt.Sprintf(" cold@%d", r.ans.Subnet)
		}
	}
	return seen, nil
}
