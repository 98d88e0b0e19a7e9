package serve

import (
	"fmt"
	"math"
	"time"

	"steppingnet/internal/governor"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// exitRelaxSteps is the relax-exit ladder depth handed to the
// overload governor when the confidence early exit is armed: two
// stage-0 levels (margin thresholds ÷2, then ÷4) before any class's
// answers are narrowed.
const exitRelaxSteps = 2

// serveCacheHits runs the semantic-cache lookup for a popped batch —
// for what Submit's own could not decide: an entry below the top rung,
// or one published since. Requests whose cached rung already covers
// their ladder cap are answered immediately from the cache (zero MACs
// — a cached rung is free even when it is WIDER than the shed cap,
// since shed caps exist to save compute) and removed.
// The survivors, returned in order, carry their lookup result in
// p.ent for the batch-1 resume path and the post-walk insert. Callers
// own the batch slice; the filter compacts it in place.
//
// Recency discipline: the lookup uses Lookup, which never reorders
// the LRU list — only requests that commit to an answer here are
// Touched. Survivors are Touched later, after their walk actually
// runs (runBatch's post-walk publish), so a batch that dies in
// failBatch cannot push live keys toward eviction just by having been
// looked up.
func (s *Server) serveCacheHits(batch []*pending, started time.Time) []*pending {
	keep := batch[:0]
	for _, p := range batch {
		p.started = started
		if ent, ok := s.cache.Lookup(p.key); ok {
			p.ent = ent
			if ent.Subnet >= p.ladderCap {
				p.cacheHit = true
				s.cache.Touch(p.key)
				logits := append([]float64(nil), ent.Logits...)
				s.answer(p, logits, ent.Subnet)
				continue
			}
		}
		keep = append(keep, p)
	}
	return keep
}

// CachePeek returns the cache entry for k without refreshing recency
// — how tests observe what a walk published. The returned entry is
// shared and immutable. Always a miss on a cache-less server.
func (s *Server) CachePeek(k cache.Key) (*cache.Entry, bool) {
	if s.cache == nil {
		return nil, false
	}
	return s.cache.Lookup(k)
}

// rowMargin returns the top-2 logit margin and the argmax of row i of
// a batched output tensor — the confidence statistic the early exit
// thresholds. Allocation-free (it indexes the engine-owned output in
// place). A single-class model reports an infinite-like margin via
// the raw logit; callers with one class should not arm the exit.
func rowMargin(out *tensor.Tensor, i, classes int) (margin float64, pred int) {
	row := out.Data()[i*classes : (i+1)*classes]
	best, second := 0, -1
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			second = best
			best = j
		} else if second < 0 || row[j] > row[second] {
			second = j
		}
	}
	if second < 0 {
		return row[best], best
	}
	return row[best] - row[second], best
}

// exitThreshold is the margin a rung predicting class pred must clear
// for a priority-class request to exit early: the configured base
// (per-predicted-class when ExitMargins is set, the scalar ExitMargin
// otherwise) divided by the governor's relax-exit scale for the
// priority class — brownout stage 0 halves the evidence required
// rather than narrowing anyone's answer.
func (s *Server) exitThreshold(pred, class int, pol governor.Policy) float64 {
	base := s.cfg.ExitMargin
	if len(s.cfg.ExitMargins) > 0 {
		base = s.cfg.ExitMargins[pred]
	}
	return base / pol.ClassExitScale(class)
}

// CalibrateExitMargins derives per-predicted-class early-exit margin
// thresholds for a model by walking calibration inputs up the full
// ladder: whenever an intermediate rung's argmax DISAGREES with the
// full-ladder answer, that rung's margin is dangerous evidence for
// the class it predicted, and the class's threshold must exceed it.
// The returned slice (length = the model's output classes) is
// max(dangerous margin)·(1+slack) per class, floored at floor — by
// construction, an early exit thresholded on it never changes the
// predicted class on the calibration set (only rungs ≥ minSubnet
// matter; narrower rungs are never exit candidates). Feed the result
// to Config.ExitMargins. Deterministic for a fixed model and input
// set; inputs must match the model's input geometry.
func CalibrateExitMargins(m *models.Model, subnets, minSubnet int, inputs [][]float64, slack, floor float64) ([]float64, error) {
	if subnets < 1 {
		return nil, fmt.Errorf("serve: calibrate-exit needs ≥1 subnets, got %d", subnets)
	}
	if minSubnet < 1 {
		minSubnet = 1
	}
	if slack < 0 || floor < 0 {
		return nil, fmt.Errorf("serve: negative slack %v or floor %v", slack, floor)
	}
	imgLen := m.InC * m.InH * m.InW
	margins := make([]float64, m.Classes)
	e := infer.NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	x := tensor.New(1, m.InC, m.InH, m.InW)
	rungPred := make([]int, subnets+1)
	rungMargin := make([]float64, subnets+1)
	for ii, in := range inputs {
		if len(in) != imgLen {
			return nil, fmt.Errorf("serve: calibrate-exit input %d length %d, model wants %d", ii, len(in), imgLen)
		}
		copy(x.Data(), in)
		e.Reset(x)
		for rung := 1; rung <= subnets; rung++ {
			out, _, err := e.Step(rung)
			if err != nil {
				return nil, err
			}
			rungMargin[rung], rungPred[rung] = rowMargin(out, 0, m.Classes)
		}
		final := rungPred[subnets]
		for rung := minSubnet; rung < subnets; rung++ {
			if rungPred[rung] != final && rungMargin[rung] >= margins[rungPred[rung]] {
				margins[rungPred[rung]] = rungMargin[rung]
			}
		}
	}
	for j := range margins {
		if margins[j] > 0 {
			// Strictly above the worst dangerous margin even at slack
			// 0: the exit triggers on margin ≥ threshold.
			margins[j] = math.Nextafter(margins[j]*(1+slack), math.Inf(1))
		}
		if margins[j] < floor {
			margins[j] = floor
		}
	}
	return margins, nil
}
