package sched

import (
	"context"
	rtrace "runtime/trace"

	"nowa/internal/trace"
)

// External blocking waits (DESIGN.md §16). A strand that must wait on
// something outside the fork/join tree — a future, a channel slot, a
// barrier trip — suspends here. The protocol mirrors the suspension
// half of scope.Sync: after registering in the primitive's waiter queue
// the strand passes its worker token on (passToken: to its own
// un-stolen parent continuation, else to the next wakeup, else to a
// thief vessel) and parks on its vessel's parker, the one way every
// suspension parks. The wakeup side is the new piece: a resume or abort
// may fire on any goroutine — another strand, a context.AfterFunc timer,
// an external completer — so the waker cannot always hand a token
// directly. Instead it pushes the Waiter onto the runtime's wake queue (a
// cqs.Queue: no lock) and rouses a thief; the next token to come free — a
// strand blocking in its turn, or an idle thief — pops it and hands
// itself over, and the blocked strand goes on where it left off. The
// exception is WakeNext, the child-first rule applied to wakeups: one
// woken waiter goes to its waker's token's slot.
//
// Leak-freedom is the sum of three guarantees: the primitive's cell CAS
// arbitration fires exactly one of Wake/WakeAborted per CommitWait; the
// blocked gauge and the wake queue's Pending flag gate token retirement;
// and the park guard declines to park while a wakeup is pending
// (WakeupsLost) or a slot is filled.

// takeNext empties slot i and returns its occupant; nil when it was
// empty or another token took it first.
func (rt *Runtime) takeNext(i int) *Waiter {
	s := &rt.slots[i].next
	if s.Load() == nil {
		return nil
	}
	return s.Swap(nil)
}

// Waiter is the blocking-wait handle of a strand, embedded in its
// vessel (one external wait can be in flight per strand — the strand is
// parked for its duration). It is what the primitives store in their
// cqs cells and what Wake/WakeAborted route back to the scheduler.
type Waiter struct {
	v *vessel
	// aborted is set by WakeAborted before the parker delivery and read
	// by the owner after its await returns.
	aborted bool
}

// PrepareWait readies the strand's wait handle for registration in a
// primitive's waiter queue. It holds nothing: a prepared wait that never
// commits (elimination — the wakeup ran ahead of the registration, or
// the waiter aborted its own cell first) is simply dropped.
func (p *Proc) PrepareWait() *Waiter {
	bw := &p.v.wait
	bw.v = p.v
	bw.aborted = false
	return bw
}

// CommitWait parks the strand until its Waiter is woken. The caller has
// already registered bw in a primitive's waiter queue (so a Wake or
// WakeAborted is guaranteed to arrive, exactly once) and decided not to
// eliminate. Returns true when the wait ended in WakeAborted — the
// caller translates that into its cancellation error.
func (p *Proc) CommitWait(bw *Waiter) bool {
	rt := p.rt
	v := p.v
	w := p.worker
	v.pend[trace.BlockedWaits]++
	// Flush before the token leaves: the wait is in the gauge before the
	// strand parks, and the aggregate stays monotonic for mid-run readers.
	v.flushCounters(w)
	if rt.lazyOn {
		// A blocking strand is a promotion signal like a suspension:
		// thieves are about to need real continuations.
		v.eagerBurst = eagerBurstLen
	}
	// The token goes away first; the strand parks unless its own wakeup
	// was what the token went to.
	if rt.passToken(v, w, bw) {
		v.pk.await()
		p.worker = v.resumeTok.worker
		if rtrace.IsEnabled() {
			p.traceToken()
		}
	}
	// The end is pended: the gauge drops at the strand's next flush.
	if bw.aborted {
		v.pend[trace.AbortedWaits]++
	} else {
		v.pend[trace.ResumedWaits]++
	}
	if rt.done.Load() || rt.cancel.Cancelled() {
		// Publishing the end may open the retirement gate thieves sleep
		// on (parkThief): rouse them all. The flush precedes the drain,
		// their ticket their read of the gauge: one side sees the other.
		v.flushCounters(p.worker)
		rt.wakeThieves()
	}
	return bw.aborted
}

// blockedLive gauges the strands parked on an external wait, the gate of
// token retirement in wind-down (DESIGN.md §16.2). CommitWait flushes a
// wait's start before it parks and pends its end after the resume.
func (rt *Runtime) blockedLive() int64 {
	return rt.rec.Live(trace.BlockedWaits, trace.ResumedWaits, trace.AbortedWaits)
}

// WaitContext is the context an external wait aborts under: the one the
// strand answers to (Proc.cancel) — its submission's effective context
// in service mode (chained to the service context, so Close-drain
// force-cancels blocked waiters), the RunCtx context in a cancellable
// batch run, nil under a plain Run (the wait is then not abortable by
// the runtime — only by the primitive's own completion or close).
func (p *Proc) WaitContext() context.Context { return p.cancel.Context() }

// Wake resumes a blocked waiter. Called by whoever won the waiter's
// cell (a resolver strand, a close sweep, a barrier tripper) — from any
// goroutine. Exactly one of Wake/WakeAborted per CommitWait.
func (bw *Waiter) Wake() { bw.deliver(false) }

// WakeNext is Wake from strand p for the one waiter its operation
// unblocked. When p's slot and the wake queue are both empty, bw goes to
// the slot and resumes on p's token once p blocks or idles; the thief
// roused as by Wake takes the slot if p runs on past its spin budget.
// Otherwise — other runtimes' waiters too — it is Wake: behind a queued
// wakeup, so slot wakeups never starve queued ones.
func (p *Proc) WakeNext(bw *Waiter) {
	rt := p.rt
	s := &rt.slots[p.worker].next
	bw.aborted = false
	if bw.v.rt != rt || rt.wakeq.Pending() || s.Load() != nil || !s.CompareAndSwap(nil, bw) {
		bw.deliver(false)
		return
	}
	rt.wakeThief()
}

// WakeAborted resumes a blocked waiter on its cancellation path. Called
// by the abort arm (a context.AfterFunc, typically) after it won the
// waiter's cell.
func (bw *Waiter) WakeAborted() { bw.deliver(true) }

// passToken gives the blocking strand's worker token w to whoever can use
// it soonest, in this order, and reports whether the strand must park
// (false: the token came straight back — see branches 2 and 3):
//
//  1. Its own un-stolen parent continuation (popOwn): the
//     work-first handoff, and what keeps the deque discipline — it runs
//     first, so whoever gets the token in the other branches never finds
//     this strand's push at the bottom of deque[w].
//  2. The waiter in token w's own next-wakeup slot: the strand this one
//     woke last (WakeNext) resumes on the token it was woken from.
//  3. The oldest wakeup queued in rt.wakeq, directly: a thief vessel
//     would only pop that entry and pass the token on, at the cost of a
//     dispatch and two goroutine switches. The popped waiter can be this
//     very strand (its waker ran after the registration): then the wait
//     is over and the strand keeps the token without parking. The popped
//     waiter stays in the blocked gauge until it runs, so the retirement
//     gate holds across the handoff.
//  4. A thief vessel, as the fallback.
func (rt *Runtime) passToken(v *vessel, w int, bw *Waiter) bool {
	if pc, ok := rt.popOwn(w, v.disp.parent); ok {
		// The claim counts as a steal on the parent's join state (this
		// strand's own finish is the pop-miss that joins): a strand that
		// migrates tokens across an external wait never leaves its
		// un-consumed push behind for the token's next chain to pop as
		// its own.
		if pc.scope.wfMode {
			pc.scope.wf.OnSteal()
		} else {
			pc.scope.lj.OnSteal()
		}
		// The claim consumes a published continuation like a
		// finish-path pop hit, so it counts as a LocalResume —
		// keeping the LocalResumes+Steals == Spawns-InlineRuns
		// conservation honest for blocking kernels.
		v.pend[trace.LocalResumes]++
		v.flushCounters(w)
		pc.v.resumeTok = token{worker: w}
		pc.v.pk.deliver()
		return true
	}
	next := rt.takeNext(w)
	if next == nil {
		next, _ = rt.wakeq.Pop()
	}
	if next != nil {
		v.pend[trace.DirectHandoffs]++
		if next == bw {
			return false
		}
		next.v.resumeTok = token{worker: w}
		next.v.pk.deliver()
		return true
	}
	tv := rt.getVessel(w)
	tv.disp = dispatch{worker: w}
	tv.pk.deliver()
	return true
}

func (bw *Waiter) deliver(aborted bool) {
	bw.aborted = aborted
	rt := bw.v.rt
	rt.wakeq.Push(bw)
	rt.wakeThief()
}
