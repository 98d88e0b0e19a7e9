// Package faultinject wraps any cluster.Backend in a deterministic
// fault schedule so the chaos tests can kill, wedge, slow, corrupt
// and partition replicas on purpose — and on a seed, so a failing
// run replays exactly. Faults are either scheduled (time windows
// measured from Wrap, generated reproducibly by Random) or armed
// explicitly mid-test with Inject; the wrapped backend's behavior
// outside active windows is untouched, so an Injector with no faults
// is a transparent pass-through.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/serve"
)

// ErrInjected marks a failure manufactured by this package; every
// injected error wraps both it and cluster.ErrTransport, so the
// router classifies injected faults exactly like real transport
// failures while tests can still tell them apart.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind enumerates the failure modes an Injector can impose.
type Kind int

const (
	// Crash makes the replica permanently dead from the moment its
	// window opens: every Submit, Stats and Health fails, forever
	// (For is ignored). Models a process that died and will not come
	// back.
	Crash Kind = iota
	// Hang blocks every call until its context expires — the
	// wedged-process case that distinguishes a health prober with
	// timeouts from one without.
	Hang
	// Slow delays every call by Delay before passing it through
	// (bounded by the call's context). Models an overloaded host or
	// degraded link; the call still succeeds if the caller's deadline
	// survives the delay.
	Slow
	// ErrorBurst fails Submit and Stats while leaving Health passing —
	// the nastiest mode for a router, because the probe loop sees a
	// healthy replica while every real request thrown at it dies.
	// Only the circuit breaker catches this one.
	ErrorBurst
	// Partition fails everything (Submit, Stats, Health) for the
	// window's duration, then heals — a network partition with
	// recovery, unlike Crash.
	Partition
)

// String names the kind for logs and test failure messages.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case Slow:
		return "slow"
	case ErrorBurst:
		return "error-burst"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled failure window.
type Fault struct {
	// Kind is the failure mode.
	Kind Kind
	// After is when the window opens, measured from the Injector's
	// creation (or from Inject time for faults armed mid-test).
	After time.Duration
	// For is the window length; 0 means open-ended. Crash ignores it
	// (a crash is permanent by definition).
	For time.Duration
	// Delay is the per-call added latency for Slow faults.
	Delay time.Duration
}

// activeAt reports whether the fault applies at elapsed time e.
func (f Fault) activeAt(e time.Duration) bool {
	if e < f.After {
		return false
	}
	if f.Kind == Crash {
		return true
	}
	return f.For <= 0 || e < f.After+f.For
}

// Injector wraps a Backend and imposes the armed faults on every
// call. Create with Wrap; it implements cluster.Backend and is safe
// for concurrent use.
type Injector struct {
	b     cluster.Backend
	start time.Time

	mu     sync.Mutex
	faults []Fault
}

// Wrap builds an Injector over b with an initial schedule (possibly
// empty). Window offsets are measured from this call.
func Wrap(b cluster.Backend, faults ...Fault) *Injector {
	return &Injector{b: b, start: time.Now(), faults: append([]Fault(nil), faults...)}
}

// Inject arms one more fault mid-test. The fault's After is
// re-anchored to now, so Inject(Fault{Kind: Crash}) kills the replica
// immediately.
func (in *Injector) Inject(f Fault) {
	in.mu.Lock()
	f.After += time.Since(in.start)
	in.faults = append(in.faults, f)
	in.mu.Unlock()
}

// active returns the fault governing this instant, preferring the
// harshest (Crash > Partition > Hang > ErrorBurst > Slow) when
// windows overlap.
func (in *Injector) active() (Fault, bool) {
	e := time.Since(in.start)
	in.mu.Lock()
	defer in.mu.Unlock()
	best, found := Fault{}, false
	for _, f := range in.faults {
		if !f.activeAt(e) {
			continue
		}
		if !found || severity(f.Kind) > severity(best.Kind) {
			best, found = f, true
		}
	}
	return best, found
}

func severity(k Kind) int {
	switch k {
	case Crash:
		return 5
	case Partition:
		return 4
	case Hang:
		return 3
	case ErrorBurst:
		return 2
	default:
		return 1
	}
}

// fail manufactures the typed error for an injected fault.
func (in *Injector) fail(f Fault, op string) error {
	return fmt.Errorf("%w: %w: %s during %s on %s",
		cluster.ErrTransport, ErrInjected, f.Kind, op, in.b.Target())
}

// hang blocks until the context gives up, then reports the usual
// transport-shaped failure.
func (in *Injector) hang(ctx context.Context, f Fault, op string) error {
	<-ctx.Done()
	return fmt.Errorf("%w: %w: %s during %s on %s: %v",
		cluster.ErrTransport, ErrInjected, f.Kind, op, in.b.Target(), ctx.Err())
}

// slow sleeps the fault's delay (bounded by ctx); it reports whether
// the context survived.
func (in *Injector) slow(ctx context.Context, f Fault) error {
	t := time.NewTimer(f.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w: slow call abandoned on %s: %v",
			cluster.ErrTransport, ErrInjected, in.b.Target(), ctx.Err())
	}
}

// gate applies the active fault to one call; a nil return means the
// call should pass through to the wrapped backend. healthOp marks
// Health probes, which ErrorBurst deliberately lets through.
func (in *Injector) gate(ctx context.Context, op string, healthOp bool) error {
	f, ok := in.active()
	if !ok {
		return nil
	}
	switch f.Kind {
	case Crash, Partition:
		return in.fail(f, op)
	case Hang:
		return in.hang(ctx, f, op)
	case ErrorBurst:
		if healthOp {
			return nil
		}
		return in.fail(f, op)
	case Slow:
		return in.slow(ctx, f)
	default:
		return nil
	}
}

// Submit implements cluster.Backend.
func (in *Injector) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	if err := in.gate(ctx, "submit", false); err != nil {
		return serve.Result{}, err
	}
	return in.b.Submit(ctx, req)
}

// Stats implements cluster.Backend.
func (in *Injector) Stats(ctx context.Context) (serve.Snapshot, error) {
	if err := in.gate(ctx, "stats", false); err != nil {
		return serve.Snapshot{}, err
	}
	return in.b.Stats(ctx)
}

// Health implements cluster.Backend.
func (in *Injector) Health(ctx context.Context) error {
	if err := in.gate(ctx, "health", true); err != nil {
		return err
	}
	return in.b.Health(ctx)
}

// Target implements cluster.Backend.
func (in *Injector) Target() string { return in.b.Target() }

// Close implements cluster.Backend, always passing through — tests
// must be able to tear down even a crashed replica.
func (in *Injector) Close() { in.b.Close() }

// Random generates a reproducible schedule of n faults within the
// horizon from the given seed — same seed, same schedule, so a chaos
// run that trips an invariant replays exactly. Crash is excluded
// (permanent death would trivially end a schedule's interest);
// explicit tests arm crashes on purpose.
func Random(seed int64, horizon time.Duration, n int) []Fault {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{Hang, Slow, ErrorBurst, Partition}
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{
			Kind:  kinds[rng.Intn(len(kinds))],
			After: time.Duration(rng.Int63n(int64(horizon))),
			For:   time.Duration(rng.Int63n(int64(horizon / 4))),
		}
		if f.Kind == Slow {
			f.Delay = time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		}
		faults = append(faults, f)
	}
	return faults
}
