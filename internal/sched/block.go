package sched

import (
	"context"

	"nowa/internal/replay"
	"nowa/internal/trace"
)

// External blocking waits (DESIGN.md §16). A strand that must wait on
// something outside the fork/join tree — a future, a channel slot, a
// barrier trip — suspends here. The protocol mirrors the suspension
// half of scope.syncBudget: the strand acquires a thief vessel *before*
// registering in the primitive's waiter queue (so the keep-token
// decision is published to the waker by the queue's cell CAS), hands
// its worker token to that thief, and parks on its vessel's parker. The
// wakeup side is the new piece: a resume or abort may fire on any
// goroutine — another strand, a context.AfterFunc timer, an external
// completer — so the waker cannot always hand a token directly.
// Instead it pushes the Waiter onto the runtime's wake queue and
// rouses the thieves; the next idle thief pops it, hands over its
// token, and the blocked strand continues where it left off.
//
// Leak-freedom is the sum of three guarantees: the primitive's cell CAS
// arbitration means exactly one of Wake/WakeAborted fires per
// CommitWait (no lost or double wakeup); the blockedLive gauge plus the
// wake-queue pending count gate token retirement (a thief never retires
// the last token while a waiter is parked or a wakeup is queued); and
// the park guard declines to park while a wakeup is pending (counted as
// WakeupsLost), closing the sleep race the same way Spawn's
// publish-then-load-waiters order does.

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
	// tv is the thief vessel acquired by PrepareWait, dispatched by
	// CommitWait, released by AbandonWait.
	tv *vessel
}

// PrepareWait readies the strand's wait handle: it draws the thief
// vessel that will inherit this worker token while the strand is
// parked. nil tv (budget exhausted) means the wait will keep its token
// — pure utilisation loss, the wakeup path delivers directly. Must be
// followed by exactly one of CommitWait or AbandonWait.
func (p *Proc) PrepareWait() *Waiter {
	bw := &p.v.wait
	bw.v = p.v
	bw.aborted = false
	bw.tv = nil
	bw.keep = false
	if p.rt.budgetOn {
		bw.tv = p.rt.getVesselBudget(p.worker, p.rt.syncLimit)
		bw.keep = bw.tv == nil
	} else {
		bw.tv = p.rt.getVessel(p.worker)
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
	if rt.adaptOn {
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
	if tv := bw.tv; tv != nil {
		bw.tv = nil
		if pc, ok := rt.blockClaimOwnCont(v, w); ok {
			// Work-first handoff: this strand's own spawn-push — its
			// parent's continuation — is still un-stolen at the bottom of
			// the deque, so resume the parent with this token directly
			// instead of dispatching a thief to go looking for work. The
			// claim counts as a steal on the parent's join state (this
			// strand's own finish is the pop-miss that joins), which keeps
			// the deque discipline intact: a strand that migrates tokens
			// across an external wait never leaves its un-consumed push
			// behind for the token's next chain to pop as its own.
			rt.freeVessel(tv, w)
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
		} else {
			tv.disp = dispatch{worker: w}
			tv.pk.deliver()
		}
	}
	v.pk.await()
	if rw := v.resumeTok.worker; rw >= 0 {
		p.worker = rw
	}
	// The gauge drops only after the strand holds a token again, so the
	// retirement gate covers the whole parked window.
	rt.blockedLive.Add(-1)
	if rt.done.Load() || rt.cancel.Cancelled() {
		// Thieves park through the wind-down while blocked waits hold
		// the retirement gate (parkThief's ending carve-out); this drop
		// may have opened it, so rouse them to re-check. The seq-cst
		// decrement-then-waiters-load here pairs with their
		// waiters-increment-then-gauge-load, so the broadcast cannot be
		// lost.
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

// blockClaimOwnCont pops the blocking strand's own spawn-push — its
// parent's continuation, pushed by spawnEager when this strand was
// dispatched — off the bottom of deque[w], if it is still there. While a
// strand runs, the bottom of its token's deque is its most recent
// un-consumed push: lazy records above it are disposable (the
// steal-interest word, not deque membership, transfers a round — see
// finishStrand), and anything else non-ours means our push was already
// consumed. Ancestor continuations deeper in the deque stay put: steals
// take the top first, so they are exactly the stealable parallelism a
// blocked strand is supposed to release, and each belongs to a deeper
// joiner's pop. A foreign element is pushed straight back (with a thief
// wake, mirroring Spawn's publish-then-wake order, so it cannot be lost
// to a park race).
func (rt *Runtime) blockClaimOwnCont(v *vessel, w int) (*cont, bool) {
	for {
		c, ok := rt.popBottom(w)
		if !ok {
			return nil, false
		}
		if c.lazy {
			continue
		}
		if c.scope != v.disp.parent {
			rt.pushBottom(w, c)
			rt.wakeThieves()
			return nil, false
		}
		return c, true
	}
}

func (bw *Waiter) deliver(aborted bool) {
	bw.aborted = aborted
	if bw.keep {
		// The strand parked holding its token: deliver directly with
		// the keep-your-token sentinel, same as syncBudget's resume.
		bw.v.resumeTok = token{worker: -1}
		bw.v.pk.deliver()
		return
	}
	rt := bw.v.rt
	rt.wakeq.Push(bw)
	rt.wakeThieves()
}
