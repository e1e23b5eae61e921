package nowa

// Blocking without leaking (DESIGN.md §16). The primitives in future.go,
// channel.go and barrier.go let a strand wait on something outside the
// fork/join tree — a value another strand will produce, a buffer slot, a
// rendezvous — without holding its worker token hostage and without any
// way to leak the wait: a blocked strand hands its token to a thief
// vessel (sched.Proc.PrepareWait/CommitWait), and a cancelled one aborts
// its waiter cell through the cell's CAS arbitration, restores a token
// through the wake queue, and returns its context's error. Exactly one of
// resume/abort wins each cell, so no vessel, stack or wakeup is ever
// lost — the abort-storm tests assert the conservation invariant
// BlockedWaits == ResumedWaits + AbortedWaits at quiescence.

import (
	"errors"

	"nowa/internal/cqs"
)

// ErrClosed is returned by Channel operations on a closed channel: Send
// fails fast, Recv reports it once the buffered items are drained.
var ErrClosed = errors.New("nowa: channel closed")

// ErrPoisoned marks a Future whose producer panicked instead of
// resolving: every Await unblocks with an error wrapping ErrPoisoned
// (and the panic cause) rather than hanging forever.
var ErrPoisoned = errors.New("nowa: future poisoned")

// procOf extracts the scheduler strand behind a Ctx. The blocking
// primitives need the vessel machinery — a parked strand hands its
// worker token away — so they run only on the continuation-stealing
// variants (the same set NewLimited accepts).
func procOf(c Ctx) *proc {
	p, ok := c.(*proc)
	if !ok {
		panic("nowa: blocking primitives require a continuation-stealing (vessel model) runtime")
	}
	return p
}

// wakeHandle adapts waiter.Wake to the cqs drain/release handle
// callbacks.
func wakeHandle(h any) { h.(*waiter).Wake() }

// aborter is a wait's cell-arbitration attempt: TryAbort returns true
// only when it won the waiter's cell, in which case the waiter will never
// be woken through it. A cqs.Ticket is one; the barrier wraps its ticket
// to withdraw the arrival too.
type aborter interface{ TryAbort() bool }

// blockOn is Future.Await's slow path, called once the caller found its
// condition false: register in q, then re-check through ready — the
// waker changes the condition and then looks for waiters, so one side
// always sees the other. A nil return means "look again": the wake ran
// ahead of the registration, the re-check passed (or a chaos abort was
// planted) and the strand won its own cell back, or it parked and was
// resumed. Losing that abort means a wakeup is in flight, which the
// strand parks to consume. A woken strand owns nothing, so an abort
// needs no compensation by the waker. ready is called, never kept: it
// costs no allocation.
func blockOn(p *proc, q *cqs.Queue, ready func() bool) error {
	bw := p.PrepareWait()
	t, registered := q.Enqueue(bw)
	if !registered || ((ready() || p.ChaosAbortWait()) && t.TryAbort()) {
		return nil
	}
	return parkWait(p, bw, t)
}

// parkWait commits a prepared wait and, when the strand runs under a
// cancellable context (RunCtx, or a submission's effective context in
// service mode), arms the abort: a context.AfterFunc racing a.TryAbort
// against the wakeup, delivering the cancellation wakeup itself when it
// wins the cell. Returns the context's error when the wait ended aborted,
// nil when it was resumed. Generic over the aborter so that a plain Run —
// where nothing can abort — boxes no value and builds no closure: a
// blocked wait allocates nothing (TestBlockedWaitAllocs).
func parkWait[A aborter](p *proc, bw *waiter, a A) error {
	ctx := p.WaitContext()
	if ctx == nil {
		// Plain Run: nothing can cancel the wait; only the primitive's
		// own resume (or close/poison sweep) ends it.
		p.CommitWait(bw)
		return nil
	}
	stop := afterFunc(ctx, func() {
		if a.TryAbort() {
			bw.WakeAborted()
		}
	})
	defer stop()
	if p.CommitWait(bw) {
		return ctx.Err()
	}
	return nil
}
