package serve

import (
	"time"

	"steppingnet/internal/infer"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// specRingSize bounds the speculative candidate ring: a handful of
// genuinely hot keys is all an idle window can usefully pre-climb,
// and a small ring keeps the hot-set snapshot (HotInputs) cheap.
const specRingSize = 16

// specCand is one speculative pre-climb candidate: a cache key whose
// stored walk sits below the top rung, a private copy of its input
// (the cached state alone cannot seed an engine — ImportState needs
// the input tensor, and a restart-warming walk needs it outright),
// and a hit count that ranks candidates hottest-first.
type specCand struct {
	key   cache.Key
	input []float64
	hits  int
}

// noteSpecCandidate records a sub-top-rung cache hit in the candidate
// ring: a repeat of this key is plausible, so finishing its climb
// during an idle window converts the next repeat into a full-ladder
// zero-MAC hit. The ring is maintained whenever the cache is armed —
// it doubles as the hot-input set the restart-warming flag persists —
// but only wakes the batch former when speculation is on. A known key
// just gets hotter; a new key fills a free slot or displaces the
// coldest one.
func (s *Server) noteSpecCandidate(k cache.Key, input []float64) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for i := range s.specRing {
		if s.specRing[i].key == k {
			s.specRing[i].hits++
			if s.cfg.Speculate {
				s.qcond.Signal()
			}
			return
		}
	}
	cand := specCand{key: k, input: append([]float64(nil), input...), hits: 1}
	if len(s.specRing) < specRingSize {
		s.specRing = append(s.specRing, cand)
	} else {
		cold := 0
		for i := range s.specRing {
			if s.specRing[i].hits < s.specRing[cold].hits {
				cold = i
			}
		}
		s.specRing[cold] = cand
	}
	if s.cfg.Speculate {
		s.qcond.Signal()
	}
}

// popSpeculativeLocked removes the hottest candidate from the ring
// and wraps it as a speculative pending for the worker pool. Callers
// hold qmu and have checked the ring is non-empty.
func (s *Server) popSpeculativeLocked() *pending {
	hot := 0
	for i := range s.specRing {
		if s.specRing[i].hits > s.specRing[hot].hits {
			hot = i
		}
	}
	cand := s.specRing[hot]
	last := len(s.specRing) - 1
	s.specRing[hot] = s.specRing[last]
	s.specRing[last] = specCand{}
	s.specRing = s.specRing[:last]
	return &pending{input: cand.input, key: cand.key, speculative: true}
}

// runSpeculative executes one speculative pre-climb: seed the engine
// from the candidate's cached state and climb exactly one rung, then
// offer the widened entry back. Preemption is checked up front — a
// real request admitted between the former's pop and this worker
// picking the job up wins the engine, and the candidate goes back on
// the ring. The one-rung bound makes every speculative occupation of
// a worker no longer than a single ladder step, so real traffic never
// waits more than one rung boundary. The offer goes through
// PutIfGeneration under the generation observed at the peek: a model
// or calibration swap during the climb must not resurrect pre-swap
// state under the new generation. Speculative MACs are metered
// separately (Snapshot.SpeculativeMACs) and never against requests.
func (s *Server) runSpeculative(e *infer.Engine, bufs map[int]*tensor.Tensor, p *pending) {
	s.qmu.Lock()
	busy := s.qtotal > 0
	s.qmu.Unlock()
	if busy {
		s.noteSpecCandidate(p.key, p.input) // preempted: keep the candidate
		return
	}
	ent, ok := s.cache.Peek(p.key)
	if !ok || ent.State == nil || ent.Subnet >= s.n {
		return
	}
	gen := s.cache.Generation()
	x := bufs[1]
	if x == nil {
		x = tensor.New(1, s.inC, s.inH, s.inW)
		bufs[1] = x
	}
	copy(x.Data(), p.input)
	if err := e.ImportState(x, ent.State); err != nil {
		return // structurally stale state: let the LRU age it out
	}
	next := ent.Subnet + 1
	out, macs, err := e.Step(next)
	if err != nil {
		return
	}
	s.speculated.Add(1)
	s.specMACs.Add(macs)
	// The top rung is the end of the ladder: no state to resume from.
	var st *infer.LadderState
	if next < s.n {
		if st, err = e.ExportState(0); err != nil {
			return
		}
	}
	logits := make([]float64, s.classes)
	copy(logits, out.Data()[:s.classes])
	if s.cache.PutIfGeneration(p.key, &cache.Entry{Subnet: next, Logits: logits, State: st}, gen) && next < s.n {
		// Still below the top: requeue so further idle windows keep
		// climbing toward a full-ladder entry.
		s.noteSpecCandidate(p.key, p.input)
	}
}

// HotInputs snapshots the candidate ring's inputs, hottest first — the
// working set a draining server persists (cmd/stepserve's restart
// warming) so its successor can pre-climb the same keys before taking
// traffic. The returned slices are private copies.
func (s *Server) HotInputs() [][]float64 {
	s.qmu.Lock()
	ring := append([]specCand(nil), s.specRing...)
	s.qmu.Unlock()
	for i := 1; i < len(ring); i++ {
		for j := i; j > 0 && ring[j].hits > ring[j-1].hits; j-- {
			ring[j], ring[j-1] = ring[j-1], ring[j]
		}
	}
	out := make([][]float64, len(ring))
	for i, c := range ring {
		out[i] = append([]float64(nil), c.input...)
	}
	return out
}

// Prewarm walks each input up the ladder through the normal Submit
// path (at the highest priority class, under the given deadline; 0
// means Config.DefaultDeadline) so the cache holds their reached
// rungs before real traffic arrives — the restart-warming half of the
// candidate ring: a successor process replays the hot set its
// predecessor persisted. It returns how many inputs were served.
// Mis-sized or rejected inputs are skipped rather than aborting — a
// persisted hot set from an older model must not block startup.
func (s *Server) Prewarm(inputs [][]float64, deadline time.Duration) int {
	served := 0
	for _, in := range inputs {
		_, err := s.Submit(Request{Input: in, Deadline: deadline, Priority: s.priorities - 1})
		if err == nil {
			served++
		}
	}
	return served
}
