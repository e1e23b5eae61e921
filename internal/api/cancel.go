package api

import (
	"context"
	"sync/atomic"
)

// CancelState is the per-Run cancellation state shared by every runtime
// family. A runtime embeds one, calls Begin at the top of each run (with
// the RunCtx context, or nil for a plain Run) and the returned stop
// function after the computation drained, and consults Cancelled on the
// paths that degrade under cancellation (Spawn, steal loops).
//
// Off-path cost when no context is attached: Cancelled is one atomic
// pointer load; Done and Err return nil likewise.
type CancelState struct {
	run atomic.Pointer[cancelRun]
}

// cancelRun is one run's context and cancelled latch. The latch lives
// with the run, not with the CancelState: a watcher whose stop races its
// context's cancellation can wake up after the next run began, and must
// then latch its own dead run — never the live one, which would make an
// uncancelled run degrade its spawns and retire its thieves.
type cancelRun struct {
	ctx       context.Context
	cancelled atomic.Bool
}

// Begin installs ctx as the current run's context (nil for a plain,
// non-cancellable run) with a fresh cancelled latch. When wake is
// non-nil a watcher goroutine invokes it once on cancellation, so
// runtimes can rouse parked workers; the watcher exits when the returned
// stop function runs. stop also detaches the context, so Done/Err revert
// to nil between runs. Begin/stop must bracket the run on the caller's
// goroutine.
func (cs *CancelState) Begin(ctx context.Context, wake func()) (stop func()) {
	if ctx == nil {
		cs.run.Store(nil)
		return func() {}
	}
	r := &cancelRun{ctx: ctx}
	cs.run.Store(r)
	if wake == nil {
		return func() { cs.run.Store(nil) }
	}
	stopCh := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			r.cancelled.Store(true)
			wake()
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		cs.run.Store(nil)
	}
}

// Cancelled reports whether the current run's context has been cancelled.
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
	// degradation is counted deterministically in tests), which the async
	// watcher latch in Begin cannot guarantee. The cost is one failed
	// chanrecv per call, only under RunCtx, and only until the first true
	// latches into the atomic bool.
	select { //nowa:hotpath-ok deliberate non-blocking Done poll; the latch above makes it transient and RunCtx-only
	case <-r.ctx.Done():
		r.cancelled.Store(true)
		return true
	default:
		return false
	}
}

// Context returns the current run's context, or nil when the run is not
// cancellable. Blocking primitives use it to arm their abort path: a
// strand suspending mid-run inherits the RunCtx context as its wait
// context.
func (cs *CancelState) Context() context.Context {
	if r := cs.run.Load(); r != nil {
		return r.ctx
	}
	return nil
}

// Done returns the current run context's Done channel, or nil when the
// run is not cancellable.
func (cs *CancelState) Done() <-chan struct{} {
	if r := cs.run.Load(); r != nil {
		return r.ctx.Done()
	}
	return nil
}

// Err returns the current run context's error, or nil when the run is
// not cancellable.
func (cs *CancelState) Err() error {
	if r := cs.run.Load(); r != nil {
		return r.ctx.Err()
	}
	return nil
}
