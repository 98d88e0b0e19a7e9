package infer

import (
	"fmt"
	"slices"

	"steppingnet/internal/tensor"
)

// LadderState is a portable, immutable snapshot of one image's ladder
// walk: what the engine's step plan keeps between rungs — each stage's
// output at the snapshot's subnet — plus the subnet itself. (A stage's
// input gather is derived data; a resumed engine refills it from the
// imported outputs on its next step.) It is the cross-request
// extension of the within-request incremental property — a fresh
// engine seeded with a LadderState via ImportState continues the walk
// exactly where the exporting engine stood, producing logits BITWISE
// identical to a cold walk to the same rung (pinned by
// TestResumeMatchesColdWalk on both GEMM backends at every worker
// count). The serving tier's semantic result cache (internal/serve/
// cache) stores one per cached input that stopped below the top rung.
//
// All tensors in a LadderState are private batch-1 copies: they alias
// neither the exporting engine's buffers nor any importing engine's,
// so a state may be shared by concurrent readers and must never be
// mutated after ExportState returns.
type LadderState struct {
	// Subnet is the rung the snapshot represents (≥ 1).
	Subnet int
	// In is the shape of the input batch row the state was exported
	// from, with the batch dimension normalized to 1. ImportState
	// rejects inputs of any other shape — resuming a walk under a
	// different input geometry would silently corrupt the reuse.
	In []int
	// Layers holds one batch-1 copy of each plan stage's output, in
	// stage order; the last is the network output.
	Layers []*tensor.Tensor
}

// Bytes reports the approximate heap footprint of the state's tensor
// data in bytes (8 per float64 element, input shape and headers
// ignored). The serving cache uses it to enforce its memory bound.
func (st *LadderState) Bytes() int64 {
	if st == nil {
		return 0
	}
	n := int64(0)
	for _, t := range st.Layers {
		if t != nil {
			n += int64(t.Len()) * 8
		}
	}
	return n
}

// ExportState snapshots row `row` of the engine's current walk into a
// self-contained LadderState. The engine must have stepped at least
// once since Reset (there is nothing to snapshot at subnet 0). The
// returned state holds freshly allocated copies — it stays valid and
// immutable across subsequent Steps, Resets, and engine lifetimes,
// which is what lets a cache hand one state to many readers.
//
// Exporting a single row of a multi-image batch is the serving-tier
// use: every row of a batch walks to the same rung together, so each
// request's state can be cached individually after a batched walk.
func (e *Engine) ExportState(row int) (*LadderState, error) {
	if e.cur < 1 {
		return nil, fmt.Errorf("infer: ExportState before any Step (subnet 0)")
	}
	if batch := e.input.Dim(0); row < 0 || row >= batch {
		return nil, fmt.Errorf("infer: ExportState row %d out of range [0,%d)", row, batch)
	}
	st := &LadderState{
		Subnet: e.cur,
		In:     append([]int{1}, e.inRow...),
		Layers: make([]*tensor.Tensor, len(e.stages)),
	}
	for i := range e.stages {
		sg := &e.stages[i]
		t := tensor.New(append([]int{1}, e.shapes[i]...)...)
		copy(t.Data(), sg.out.Data()[row*sg.outLen:(row+1)*sg.outLen])
		st.Layers[i] = t
	}
	return st, nil
}

// ImportState seeds the engine from a previously exported LadderState:
// after it returns, the engine behaves exactly as if it had been Reset
// to x and walked to st.Subnet — Current() reports st.Subnet, the next
// Step(s) with s > st.Subnet computes only the newly activated units,
// and the resulting logits are bitwise identical to a cold walk (the
// resume-equivalence contract). TotalMACs restarts at 0: resumed rungs
// cost zero new MACs by construction, and the counter meters only work
// this engine actually executes.
//
// x must be the same single-image input the state was exported from
// (batch 1, shape equal to st.In); the state must match the engine's
// plan: a subnet within the ladder and one batch-1 tensor of the
// stage's output shape per stage. States arrive from a cache shared by
// every worker, so every violation is rejected with an error before any
// engine mutation — a wrong-shaped tensor would otherwise be indexed
// out of range by the next Step. The state itself is copied into the
// engine's buffers, never adopted, so the caller's state remains
// shareable and immutable.
func (e *Engine) ImportState(x *tensor.Tensor, st *LadderState) error {
	if st == nil {
		return fmt.Errorf("infer: ImportState with nil state")
	}
	if st.Subnet < 1 || st.Subnet > e.n {
		return fmt.Errorf("infer: ImportState subnet %d outside the ladder 1..%d", st.Subnet, e.n)
	}
	if len(st.Layers) != len(e.stages) {
		return fmt.Errorf("infer: ImportState has %d stage tensors, plan has %d stages", len(st.Layers), len(e.stages))
	}
	if x == nil || x.Rank() == 0 || x.Dim(0) != 1 {
		return fmt.Errorf("infer: ImportState input must be a single-image batch")
	}
	if !slices.Equal(x.Shape(), st.In) {
		return fmt.Errorf("infer: ImportState input shape %v, state expects %v", x.Shape(), st.In)
	}
	// The plan's stage shapes for this input: the bound ones, or — for
	// a shape the engine has not walked yet — computed on the side, so
	// a rejected import leaves the current walk intact.
	shapes := e.shapes
	if e.inRow == nil || !slices.Equal(x.Shape()[1:], e.inRow) {
		var err error
		if shapes, err = rowShapes(e.stages, x.Shape()[1:]); err != nil {
			return err
		}
	}
	for i, t := range st.Layers {
		if t == nil || t.Rank() == 0 || t.Dim(0) != 1 || !slices.Equal(t.Shape()[1:], shapes[i]) {
			return fmt.Errorf("infer: ImportState stage %d tensor is not a batch-1 tensor of shape %v", i, shapes[i])
		}
	}
	e.Reset(x)
	if e.resetErr != nil {
		return e.resetErr
	}
	for i, t := range st.Layers {
		copy(e.stages[i].out.Data(), t.Data())
	}
	e.cur = st.Subnet
	return nil
}

// Output returns the engine's current network output (the last
// stage's buffer) without stepping: after Step(s) it is the subnet-s
// logits, after ImportState it is the resumed rung's logits. Nil
// before any Step or import. The tensor is engine-owned and valid
// until the next Step or Reset, like Step's return value.
func (e *Engine) Output() *tensor.Tensor {
	if e.cur == 0 {
		return nil
	}
	return &e.stages[len(e.stages)-1].out
}
