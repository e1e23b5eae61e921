package api

import (
	"context"
	"sync/atomic"
)

// CancelState is one cancellation view, shared by every runtime family:
// a run's (begun with the RunCtx context, or nil for a plain Run) or a
// service submission's (begun with its effective context). The owner
// calls Begin before the first strand answers to it and End after the
// last one finished; strands consult Cancelled on the paths that degrade
// under cancellation (Spawn, steal loops).
//
// Off-path cost when no context is attached: Cancelled is one atomic
// pointer load; Done and Err return nil likewise.
type CancelState struct {
	run atomic.Pointer[cancelRun]
}

// cancelRun is one run's context and cancelled latch. The latch lives
// with the run, not with the CancelState: a wake whose End races its
// context's cancellation can still run after the next Begin, and must
// then latch its own dead run — never the live one, which would make an
// uncancelled run degrade its spawns and retire its thieves.
type cancelRun struct {
	ctx       context.Context
	cancelled atomic.Bool
	// stop disarms the wake Begin armed; nil when none. Owner-only:
	// Begin and End run on the owner's goroutine.
	stop func() bool
}

// Begin installs ctx as the current context with a fresh cancelled
// latch. A nil ctx, or one that can never be cancelled, makes the view
// non-cancellable. When wake is non-nil it runs once on cancellation,
// from a context.AfterFunc — no goroutine exists until the context is
// cancelled — so runtimes can rouse parked workers. End disarms it and
// detaches the context, so Done/Err revert to nil.
func (cs *CancelState) Begin(ctx context.Context, wake func()) {
	if ctx == nil || ctx.Done() == nil {
		cs.run.Store(nil)
		return
	}
	r := &cancelRun{ctx: ctx}
	if wake != nil {
		r.stop = context.AfterFunc(ctx, func() {
			r.cancelled.Store(true)
			wake()
		})
	}
	cs.run.Store(r)
}

// End closes what Begin opened.
func (cs *CancelState) End() {
	if r := cs.run.Load(); r != nil && r.stop != nil {
		r.stop()
	}
	cs.run.Store(nil)
}

// Cancelled reports whether the current context has been cancelled.
// The first observation latches, so later calls are two atomic loads.
func (cs *CancelState) Cancelled() bool {
	r := cs.run.Load()
	if r == nil {
		return false
	}
	if r.cancelled.Load() {
		return true
	}
	// A non-blocking poll, not a wait: cancellation must be observable by
	// the very next Spawn after the caller's cancel() returns (the inline
	// degradation is counted deterministically in tests), which the
	// AfterFunc wake in Begin, running on its own goroutine, cannot
	// guarantee. The cost is one failed chanrecv per call, only under a
	// cancellable context, and only until the first true latches into the
	// atomic bool.
	select { //nowa:hotpath-ok deliberate non-blocking Done poll; the latch above makes it transient and cancellable-context-only
	case <-r.ctx.Done():
		r.cancelled.Store(true)
		return true
	default:
		return false
	}
}

// Context returns the current context, or nil when the view is not
// cancellable. Blocking primitives use it to arm their abort path: a
// strand suspending mid-run inherits it as its wait context.
func (cs *CancelState) Context() context.Context {
	if r := cs.run.Load(); r != nil {
		return r.ctx
	}
	return nil
}

// Done returns the current context's Done channel, or nil when the view
// is not cancellable.
func (cs *CancelState) Done() <-chan struct{} {
	if r := cs.run.Load(); r != nil {
		return r.ctx.Done()
	}
	return nil
}

// Err returns the current context's error, or nil when the view is not
// cancellable.
func (cs *CancelState) Err() error {
	if r := cs.run.Load(); r != nil {
		return r.ctx.Err()
	}
	return nil
}
