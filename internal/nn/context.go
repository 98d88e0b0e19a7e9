package nn

import "steppingnet/internal/tensor"

// Context carries per-pass state through Forward/Backward. A fresh
// Context per training step keeps layers stateless across subnets.
type Context struct {
	// Subnet is the active subnet index (1..N). Units with a larger
	// assignment are inactive: they output zero and receive no
	// gradient.
	Subnet int
	// Train enables training-time behaviour (batch statistics,
	// activation caching for backward).
	Train bool
	// Beta, when in (0,1), enables the paper's learning-rate
	// suppression (§III-A2): while training subnet j, gradients of a
	// unit assigned to subnet i<j are scaled by Beta^(j−i), giving
	// smaller subnets stability.
	Beta float64
	// AccumulateImportance asks masked layers to accumulate
	// |∂L_s/∂r_j| (Eq. 2) for the active subnet during Backward.
	AccumulateImportance bool
	// Mode selects the BatchNorm parameter set in switchable
	// BatchNorm layers (slimmable baseline). Modes are indexed like
	// subnets, 1..N; 0 means "use set 1".
	Mode int
	// Scratch, when non-nil, is a per-goroutine buffer arena the
	// layers draw their outputs and temporaries from, making the
	// steady-state forward/backward path allocation-free. All Pool
	// methods are nil-safe, so layers use ctx.Scratch unconditionally
	// and a nil pool degrades to plain allocation.
	//
	// Ownership: in eval mode Network.Forward recycles every
	// intermediate activation and the CALLER owns the final output
	// (Put it back when done). In train mode layers keep their cached
	// activations (x, z, im2col matrices) alive until their next
	// Train forward, where they self-recycle; the caller owns the
	// loss gradient it feeds Backward and the input gradient Backward
	// returns. Never share one Pool between goroutines.
	Scratch *tensor.Pool
}

// Eval returns an inference context for subnet s.
func Eval(s int) *Context { return &Context{Subnet: s} }
