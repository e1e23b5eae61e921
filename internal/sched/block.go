package sched

import (
	"context"

	"nowa/internal/replay"
	"nowa/internal/trace"
)

// External blocking waits (DESIGN.md §16). A strand that must wait on
// something outside the fork/join tree — a future, a channel slot, a
// barrier trip — suspends here. The protocol mirrors the suspension
// half of a budgeted scope.Sync: the strand decides whether it can give its
// worker token away *before* registering in the primitive's waiter queue
// (so the keep-token decision is published to the waker by the queue's
// cell CAS), passes the token on (passToken: to its own un-stolen parent
// continuation, else to the oldest queued wakeup, else to a thief
// vessel), and parks on its vessel's parker — without the ladder's spin
// phase, since nothing bounds the wait. The wakeup side is the new
// piece: a resume or abort may fire on any goroutine — another strand, a
// context.AfterFunc timer, an external completer — so the waker cannot
// always hand a token directly. Instead it pushes the Waiter onto the
// runtime's wake queue and rouses a thief; the next token to come
// free — a strand blocking in its turn, or an idle thief — pops it and
// hands itself over, and the blocked strand continues where it left off.
//
// Leak-freedom is the sum of three guarantees: the primitive's cell CAS
// arbitration means exactly one of Wake/WakeAborted fires per
// CommitWait (no lost or double wakeup); the blockedLive gauge plus the
// wake-queue pending count gate token retirement (a thief never retires
// the last token while a waiter is parked or a wakeup is queued); and
// the park guard declines to park while a wakeup is pending (counted as
// WakeupsLost), closing the sleep race the same way Spawn's
// publish-then-load-Waiting order does.

// Waiter is the blocking-wait handle of a strand, embedded in its
// vessel (one external wait can be in flight per strand — the strand is
// parked for its duration). It is what the primitives store in their
// cqs cells and what Wake/WakeAborted route back to the scheduler.
type Waiter struct {
	v *vessel
	// keep marks a wait that parked holding its worker token because no
	// thief vessel fit the budget (the keepToken protocol). Decided
	// before the primitive's registration publishes the Waiter, so the
	// waker's read is ordered by the cell CAS.
	keep bool
	// aborted is set by WakeAborted before the parker delivery and read
	// by the owner after its await returns.
	aborted bool
	// tv is the thief vessel PrepareWait drew to settle keep under a
	// vessel budget (nil without one): dispatched or freed by CommitWait,
	// released by AbandonWait.
	tv *vessel
}

// PrepareWait readies the strand's wait handle. Under a vessel budget it
// draws the thief vessel that may inherit this worker token, because
// whether one fits decides keep and keep must precede the registration:
// nil tv (budget exhausted) means the wait will keep its token — pure
// utilisation loss, the wakeup path delivers directly. Without a budget
// a vessel can always be had, so none is drawn until passToken finds
// nobody better to give the token to. Must be followed by exactly one of
// CommitWait or AbandonWait.
func (p *Proc) PrepareWait() *Waiter {
	bw := &p.v.wait
	bw.v = p.v
	bw.aborted = false
	bw.tv = nil
	bw.keep = false
	if p.rt.budgetOn {
		bw.tv = p.rt.getVesselBudget(p.worker, p.rt.syncLimit)
		bw.keep = bw.tv == nil
	}
	return bw
}

// AbandonWait releases a prepared wait that never parked (elimination:
// the wakeup ran ahead of the registration, or the waiter aborted its
// own cell before committing).
func (p *Proc) AbandonWait(bw *Waiter) {
	if bw.tv != nil {
		p.rt.freeVessel(bw.tv, p.worker)
		bw.tv = nil
	}
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
	// Flush before the token leaves: the aggregate stays monotonic for
	// the watchdog, and the block itself is progress.
	v.flushCounters(w)
	if rt.recordOn {
		rt.rep.Record(w, replay.KWaitBlock, 0, 0)
	}
	if rt.lazyOn {
		// A blocking strand is a promotion signal like a suspension:
		// thieves are about to need real continuations.
		v.eagerBurst = eagerBurstLen
	}
	live := rt.blockedLive.Add(1)
	for {
		hw := rt.blockedHW.Load()
		if live <= hw || rt.blockedHW.CompareAndSwap(hw, live) {
			break
		}
	}
	// A keep wait parks holding its token; any other gives it away first,
	// and parks unless its own wakeup was what the token went to. Parking
	// is immediate (spin budget 0): the wait is unbounded and the strand
	// holds no token, so the ladder's yields would only contend with the
	// token holders for Go's run queue (see parker).
	if bw.keep || rt.passToken(v, w, bw) {
		v.pk.await(0)
		if rw := v.resumeTok.worker; rw >= 0 {
			p.worker = rw
		}
	}
	// The gauge drops only after the strand holds a token again, so the
	// retirement gate covers the whole parked window.
	rt.blockedLive.Add(-1)
	if rt.done.Load() || rt.cancel.Cancelled() {
		// Thieves park through the wind-down while blocked waits hold
		// the retirement gate shut (parkThief); this drop may have opened
		// it, so rouse them all to re-check. The decrement precedes the
		// drain's ticket bound, their ticket precedes their load of the
		// gauge: one side sees the other.
		rt.wakeThieves()
	}
	if bw.aborted {
		p.v.pend[trace.AbortedWaits]++
	} else {
		p.v.pend[trace.ResumedWaits]++
	}
	if rt.recordOn {
		if bw.aborted {
			rt.rep.Record(p.worker, replay.KWaitAbort, 0, 0)
		} else {
			rt.rep.Record(p.worker, replay.KWaitWake, 0, 0)
		}
	}
	return bw.aborted
}

// WaitContext is the context an external wait aborts under: the
// submission's effective context in service mode (chained to the
// service context, so Close-drain force-cancels blocked waiters), the
// RunCtx context in a cancellable batch run, nil under a plain Run
// (the wait is then not abortable by the runtime — only by the
// primitive's own completion or close).
func (p *Proc) WaitContext() context.Context {
	if p.sub != nil {
		return p.sub.ctx
	}
	return p.rt.cancel.Context()
}

// Wake resumes a blocked waiter. Called by whoever won the waiter's
// cell (a resolver strand, a close sweep, a barrier tripper) — from any
// goroutine. Exactly one of Wake/WakeAborted per CommitWait.
func (bw *Waiter) Wake() { bw.deliver(false) }

// WakeAborted resumes a blocked waiter on its cancellation path. Called
// by the abort arm (a context.AfterFunc, typically) after it won the
// waiter's cell.
func (bw *Waiter) WakeAborted() { bw.deliver(true) }

// passToken gives the blocking strand's worker token w to whoever can use
// it soonest, in this order, and reports whether the strand must park
// (false: the token came straight back — see branch 2):
//
//  1. Its own un-stolen parent continuation (popOwn): the
//     work-first handoff, and what keeps the deque discipline — it runs
//     first, so whoever gets the token in the other branches never finds
//     this strand's push at the bottom of deque[w].
//  2. The oldest wakeup queued in rt.wakeq, directly. A thief vessel
//     dispatched instead would do nothing but pop that same entry and
//     pass the token on; skipping it saves a vessel dispatch and two
//     goroutine switches per block. The popped waiter can be this very
//     strand (its waker ran between the registration and here): then the
//     wait is already over and the strand keeps the token without
//     parking. The pop needs no more care than a thief's: the popped
//     waiter stays counted in blockedLive until it runs on the token, so
//     the retirement gate holds across the handoff, and a thief that
//     declined to park for this entry merely finds the queue empty.
//  3. A thief vessel, as the fallback.
//
// The route records no schedule event, like the thief-side pop in
// stealLoop: the wake queue is FIFO and its order is set by the replayed
// interleaving (see replay.KWaitBlock).
func (rt *Runtime) passToken(v *vessel, w int, bw *Waiter) bool {
	tv := bw.tv
	bw.tv = nil
	if pc, ok := rt.popOwn(w, v.disp.parent); ok {
		// The claim counts as a steal on the parent's join state (this
		// strand's own finish is the pop-miss that joins): a strand that
		// migrates tokens across an external wait never leaves its
		// un-consumed push behind for the token's next chain to pop as
		// its own.
		if tv != nil {
			rt.freeVessel(tv, w)
		}
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
		if rt.recordOn {
			rt.rep.Record(w, replay.KPopHit, 0, 0)
		}
		pc.v.resumeTok = token{worker: w}
		pc.v.pk.deliver()
		return true
	}
	if next, ok := rt.wakeq.Pop(); ok {
		if tv != nil {
			rt.freeVessel(tv, w)
		}
		rt.rec.Worker(w)[trace.DirectHandoffs].Add(1)
		if next == bw {
			return false
		}
		next.v.resumeTok = token{worker: w}
		next.v.pk.deliver()
		return true
	}
	if tv == nil {
		tv = rt.getVessel(w)
	}
	tv.disp = dispatch{worker: w}
	tv.pk.deliver()
	return true
}

func (bw *Waiter) deliver(aborted bool) {
	bw.aborted = aborted
	if bw.keep {
		// The strand parked holding its token: deliver directly with
		// the keep-your-token sentinel, same as a token-keeping Sync's.
		bw.v.resumeTok = token{worker: -1}
		bw.v.pk.deliver()
		return
	}
	rt := bw.v.rt
	rt.wakeq.Push(bw)
	rt.wakeThief()
}
