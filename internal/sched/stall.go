package sched

import "time"

// Stall recovery (DESIGN.md §15.1). A strand that seizes its OS thread
// — a blocking syscall, a pathological user function, an injected
// Chaos.StallWorker — pins a worker token and silently shrinks the run's
// parallelism. With Config.StallThreshold set, a per-run ticker
// (startStallTicker) seizes a worker whose heartbeat (bumped wherever a
// token provably passes through the scheduler) stays stale while
// runnable work exists, and dispatches a *supplemental worker* on slot
// Workers+w, the one paired with base worker w: a full scheduling
// participant with a token and a slot of its own, which inherits the
// seized worker's duty but never its owner-only storage — the seized
// strand still holds token w. The worker's return shows at its next
// scheduler touch, as a CAS on its stall word that also wakes the parked
// thieves; the supplement retires once its own deque is empty. A false
// seizure costs transient oversubscription, never correctness.
//
// Memory ordering: one CAS word per base worker carries the whole cycle.
// The ticker draws the supplement's vessel and reserves its token
// before it moves the word off healthy; the supplement frees its vessel
// before its release-CAS retiring→healthy, which the ticker's
// acquire-load of healthy orders before the next arming of the slot.

// Per-worker stall word phases. The zero value is healthy.
const (
	// wsHealthy: token w circulates normally and slot Workers+w is free.
	wsHealthy uint32 = iota
	// wsSupplemented: the ticker judged worker w stalled (heartbeat
	// stale past StallThreshold with runnable work present) and a
	// supplement is live on slot Workers+w.
	wsSupplemented
	// wsRetiring: worker w re-entered the scheduler; the supplement
	// retires at its next steal-loop pass that finds its deque empty.
	wsRetiring
)

// beat bumps slot w's heartbeat. Callers gate on rt.stallOn, so the
// disabled configuration pays nothing. Supplemental slots bump too —
// harmless, the ticker samples base workers only.
//
//nowa:hotpath
func (rt *Runtime) beat(w int) {
	rt.slots[w].hb.Add(1)
}

// stallFinishCheck is the strand-finish stall-recovery hook: heartbeat
// plus the re-entry CAS when this token was supplemented while its
// strand ran long. One atomic add and one predictable load in the
// healthy case.
//
//nowa:hotpath
func (rt *Runtime) stallFinishCheck(w int) {
	rt.beat(w)
	if rt.slots[w].state.Load() == wsSupplemented {
		rt.stallReentry(w)
	}
}

// stallStealCheck is the steal-loop stall-recovery hook, run once per
// pass: heartbeat, re-entry, and — for supplements — the retire phase.
// It reports whether the calling supplement must retire its token now.
// The deque-size check is load-bearing: a finish-miss usually means the
// deque is empty, but an external-wait migration can leave a foreign
// continuation pushed back behind the miss (vessel.go finishStrand), and
// a retiring supplement must abandon no published work.
//
//nowa:hotpath
func (rt *Runtime) stallStealCheck(w int) bool {
	rt.stallFinishCheck(w)
	if w < rt.cfg.Workers {
		return false
	}
	return rt.slots[w-rt.cfg.Workers].state.Load() == wsRetiring && rt.slots[w].size() == 0
}

// stallReentry is the returning worker's side of the cycle: the CAS
// supplemented→retiring, then a wake of every parked thief so a parked
// supplement notices promptly.
//
//nowa:coldpath runs only while the stall word is off healthy — a detected stall returning, by definition rare
func (rt *Runtime) stallReentry(w int) {
	if rt.slots[w].state.CompareAndSwap(wsSupplemented, wsRetiring) {
		rt.wakeThieves()
	}
}

// retireTokenFrom retires the token held on slot w, routing supplement
// tokens through their stall word first.
//
//nowa:coldpath runs once per token per Run, at drain time
func (rt *Runtime) retireTokenFrom(w int) {
	if rt.stallOn && w >= rt.cfg.Workers {
		rt.retireSupplement(w)
		return
	}
	rt.retireToken()
}

// retireSupplement completes a supplement's cycle: its pair's word back
// to healthy (the release edge the next arming acquires), the retirement
// counted, the token surrendered. The supplemented→retiring CAS covers
// the run-wind-down path, where the supplement retires on done/cancel
// before its worker ever returned.
//
//nowa:coldpath runs once per supplement retirement
func (rt *Runtime) retireSupplement(ws int) {
	w := ws - rt.cfg.Workers
	s := &rt.slots[w].state
	s.CompareAndSwap(wsSupplemented, wsRetiring)
	if s.CompareAndSwap(wsRetiring, wsHealthy) {
		rt.supRetired.Add(1)
	}
	rt.retireToken()
}

// seizeWorker dispatches a supplemental worker on slot Workers+w for
// base worker w, whose stall word reads healthy. Ticker-only; while
// the word is healthy the slot's owner-only storage is the ticker's.
// The token comes first, then the vessel: the raise CASes n→n+1 only while n>0, because
// once the run's last token retires (n==0 closes finished) no supplement
// may join the run. The word moves last, before the dispatch the
// supplement starts from.
func (rt *Runtime) seizeWorker(w int) {
	ws := rt.cfg.Workers + w
	for {
		n := rt.tokensLeft.Load()
		if n <= 0 {
			// The run is completing; supplementing now could double-close
			// the completion broadcast.
			return
		}
		if rt.tokensLeft.CompareAndSwap(n, n+1) {
			break
		}
	}
	v := rt.getVessel(ws)
	rt.slots[w].state.Store(wsSupplemented)
	// Publish the slot as a steal victim before the supplement can
	// publish continuations into it.
	for {
		hi := rt.victimHi.Load()
		if int32(ws+1) <= hi || rt.victimHi.CompareAndSwap(hi, int32(ws+1)) {
			break
		}
	}
	v.disp = dispatch{worker: ws}
	v.pk.deliver()
	rt.supplemented.Add(1)
}

// startStallTicker starts stall recovery for one run: a goroutine whose
// ticker fires every quarter of StallThreshold, floored at 100µs. Each
// tick seizes every base worker whose word reads healthy and whose
// heartbeat stayed unchanged for a full threshold of consecutive ticks
// with runnable work at every one: progress or a workless tick resets
// the count. The returned stop ends the goroutine and returns only once
// it has exited, so no seizure lands after Run returns.
func (rt *Runtime) startStallTicker() (stop func()) {
	tick := max(rt.cfg.StallThreshold/4, 100*time.Microsecond)
	need := max(int(rt.cfg.StallThreshold/tick), 1)
	last, stale := make([]uint64, rt.cfg.Workers), make([]int, rt.cfg.Workers)
	for w := range last {
		last[w] = rt.slots[w].hb.Load()
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			if rt.done.Load() || rt.cancel.Cancelled() {
				continue
			}
			// Runnable work — a non-empty deque (supplements' included) or
			// a queued submission no token has taken — is what makes a
			// stale heartbeat a stall rather than idleness.
			work := rt.anyDequeNonEmpty() || rt.submissionsQueued()
			for w := range last {
				cur := rt.slots[w].hb.Load()
				if cur != last[w] || !work || rt.slots[w].state.Load() != wsHealthy {
					last[w], stale[w] = cur, 0
					continue
				}
				if stale[w]++; stale[w] >= need {
					stale[w] = 0
					rt.seizeWorker(w)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}
