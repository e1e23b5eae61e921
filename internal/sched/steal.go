package sched

import (
	"runtime"

	"nowa/internal/cactus"
	"nowa/internal/core"
	"nowa/internal/deque"
	"nowa/internal/trace"
)

// stealLoop is the quest for work: the strand holding token p.worker picks
// random victims until it steals a continuation (which it resumes, ending
// this strand), takes a queued submission of a serving runtime, or the
// runtime finishes. A cancelled run retires the token instead: no new
// continuations appear once Spawn degrades to inline execution, and
// already-published ones drain through the owner's popBottom, so thieves
// are pure overhead while the computation winds down.
func (rt *Runtime) stealLoop(p *Proc) {
	w := p.worker
	rec := rt.rec.Worker(w)
	bounded := rt.cfg.Stacks.GlobalCap > 0
	fails := 0
	for {
		bw := rt.takeNext(w)
		if bw == nil && rt.wakeq.Pending() {
			bw, _ = rt.wakeq.Pop()
		}
		if bw != nil {
			// An externally blocked strand was woken — the one in this
			// token's own slot first, else the oldest queued: hand it
			// this token exactly like a stolen continuation's resume. The
			// vessel is freed first, while the token is still ours.
			rt.freeVessel(p.v, w)
			rt.takeDemand(w)
			bw.v.resumeTok = token{worker: w}
			bw.v.pk.deliver()
			return
		}

		if rt.stallOn && rt.stallStealCheck(w) {
			// This supplement's duty ended: the worker it stood in for
			// re-entered the scheduler, and this slot's deque is empty.
			// Checked before the submission take, or a standing backlog
			// would keep the supplement taking submissions forever.
			rt.freeVessel(p.v, w)
			rt.retireSupplement(w)
			return
		}

		if rt.submissionsQueued() {
			// Taken before the wind-down check, so a forced drain still
			// settles everything queued. The yield is the only point where
			// a serving token enters Go's scheduler between submissions;
			// the goroutines feeding the queue need it (DESIGN.md §13).
			runtime.Gosched()
			if rt.takeSubmission(p) {
				return
			}
		}

		if rt.done.Load() || rt.cancel.Cancelled() {
			if rt.blockedLive() > 0 || rt.wakeq.Pending() {
				// Strands are still parked on external waits (or their
				// wakeups wait for a token): retiring now could leave a
				// woken waiter no token to resume on. The wait may be
				// unbounded (a plain Run cannot abort it), so the token
				// parks like any idle thief; parkThief names who wakes it.
				rt.stealBackoff(p, &fails)
				continue
			}
			// Free the vessel before retiring: the token is still ours
			// here, which keeps the local free list owner-only. Supplement
			// tokens route through their stall word (stall.go).
			rt.freeVessel(p.v, w)
			rt.retireTokenFrom(w)
			return
		}

		if rt.chaosOn && rt.slots[w].chaos.PreSteal(rt.cfg.Chaos) {
			// Forced failed steal: abandon the attempt outright.
			rec[trace.FailedSteals].Add(1)
			rt.stealBackoff(p, &fails)
			continue
		}

		// Cilk Plus mode: a thief must hold a stack before it may steal;
		// when the pool is exhausted it stops stealing (§II-C).
		var preStack *cactus.Stack
		if bounded {
			s, ok := rt.pool.Get(w)
			if !ok {
				rt.stealBackoff(p, &fails)
				continue
			}
			preStack = s
		}

		victim := rt.stealVictim(w)
		c, outcome := rt.popTopSteal(victim)
		if outcome != deque.StealHit {
			if outcome == deque.StealEmpty && rt.lazyOn && victim != w {
				// Nothing published there: ask the victim's strand for its
				// next spawn. Never on the thief's own token — the strand it
				// resumes would answer a demand nobody is waiting on.
				rt.postDemand(w, victim)
			}
			if preStack != nil {
				rt.pool.Put(w, preStack)
			}
			rec[trace.FailedSteals].Add(1)
			rt.stealBackoff(p, &fails)
			continue
		}
		rec[trace.Steals].Add(1)

		// The resumed frame chain is charged one stack: the victim's stack
		// transferred with the frame (Listing 2 line 13) and the displaced
		// party draws a replacement from the pool. The charge lasts while
		// that party — the child that ran beside this steal — is live: the
		// thief is the scope's main path and its vessel is parked, so it
		// may read the outstanding count and hand back the stacks of
		// children that have since joined (the paper returns an emptied
		// stack at the implicit sync). A strand that is stolen from for
		// as long as it lives thus holds stacks for its live children
		// only.
		stack := preStack
		if stack == nil {
			if s, ok := rt.pool.Get(w); ok {
				stack = s
			}
		}
		if stack != nil {
			c.v.stacks = append(c.v.stacks, stack) //nowa:hotpath-ok stack charging happens only on successful steals, which the paper already prices at a pool interaction; not on the spawn ladder
			c.scope.charged++
			c.scope.returnStacks(w, int(c.scope.outstanding()))
		}

		// run(): the thief becomes the main path — increment α (already
		// done inside popTopSteal) and resume the continuation with this
		// token. This vessel is done: free it while the token is still
		// ours, then hand the token over through the parker.
		rt.freeVessel(p.v, w)
		rt.takeDemand(w)
		c.v.resumeTok = token{worker: w}
		c.v.pk.deliver()
		return
	}
}

// postDemand is the thief's half of lazy vessel promotion: thief w found
// victim's deque empty and asks the strand running on that token to
// publish its next spawn. The load keeps a thief that polls an
// already-asked victim read-only; a landed CAS is one InterestSignals
// tally.
//
//nowa:hotpath
func (rt *Runtime) postDemand(w, victim int) {
	d := &rt.slots[victim].demand
	if d.Load() == 0 && d.CompareAndSwap(0, 1) {
		rt.rec.Worker(w)[trace.InterestSignals].Add(1)
	}
}

// takeDemand clears the steal demand posted on token w and reports
// whether there was any. A lazy spawn answers what it takes. Every
// strand start on w — a fresh dispatch (a taken submission included), a
// stolen continuation or queued wakeup resumed from the steal loop —
// takes and discards: demand belongs to the strand running on the token
// now, and one posted while the token idled in the steal loop is from a
// thief that has long since moved on — answering it would cost the new
// strand an eager handoff plus a burst for nobody.
// Discarding a live demand is as sound as answering a stale one: the
// thief re-posts on its next visit.
//
//nowa:hotpath
func (rt *Runtime) takeDemand(w int) bool {
	d := &rt.slots[w].demand
	if d.Load() == 0 {
		return false
	}
	d.Store(0)
	return true
}

// submissionsQueued reports whether a serving runtime's admission queue
// holds a submission. Submit publishes and then loads the idle queue's
// Waiting, a parking thief claims its ticket and then calls this, so a
// submission cannot be slept through.
//
//nowa:hotpath
func (rt *Runtime) submissionsQueued() bool {
	svc := rt.svc.Load()
	return svc != nil && svc.adm.depth.Load() > 0
}

// stealVictim draws slot w's next steal victim from its RNG — the
// paper's randomized work stealing — unless a test scripted the slot's
// victims (slot.script).
func (rt *Runtime) stealVictim(w int) int {
	s := &rt.slots[w]
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return int(s.rand() % uint64(rt.victimSlots()))
}

// victimSlots is the number of victim-eligible scheduling slots: the base
// workers, plus — with stall recovery armed — every supplement slot armed
// so far this run, since supplements publish stealable continuations too.
func (rt *Runtime) victimSlots() int {
	if rt.stallOn {
		return int(rt.victimHi.Load())
	}
	return rt.cfg.Workers
}

// popTopSteal performs one steal attempt on the victim's deque, updating
// the stolen scope's join state according to the configured protocol.
//
// Wait-free mode: a plain lock-free popTop; on success the thief, now the
// sole main path of the stolen scope, increments α without further
// synchronisation (Invariant II).
//
// Fibril mode: core.StealCoupled, Listing 2's overlapping deque and
// frame locks.
func (rt *Runtime) popTopSteal(victim int) (*cont, deque.StealOutcome) {
	s := &rt.slots[victim]
	if rt.cfg.Join == LockedFibril {
		return core.StealCoupled(s.the, func(c *cont) *core.LockedJoin { return &c.scope.lj })
	}
	var c *cont
	var o deque.StealOutcome
	if s.cl != nil {
		c, o = s.cl.PopTopOutcome()
	} else {
		c, o = s.the.PopTopOutcome()
	}
	if o != deque.StealHit {
		return nil, o
	}
	c.scope.wf.OnSteal()
	return c, deque.StealHit
}

// spinBeforePark is how many consecutive failed passes of the steal
// loop yield the processor before the thief parks. A constant, not a
// Config field: a parked thief is woken by the very publication a
// spinning one would have found, so the count only trades yields against
// one park and wake.
const spinBeforePark = 64

// stealBackoff is the one idle protocol: the first spinBeforePark
// consecutive failures yield, the next one parks on the idle queue
// (parkThief). The count restarts after a wakeup and after a declined
// park alike — both mean there is something to look at again. The
// budget is also the grace a next-wakeup slot's owner has before another
// token takes the slot (parkThief, DESIGN.md §16.2).
func (rt *Runtime) stealBackoff(p *Proc, fails *int) {
	if *fails++; *fails <= spinBeforePark {
		runtime.Gosched()
		return
	}
	*fails = 0
	rt.parkThief(p)
}
