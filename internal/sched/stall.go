package sched

import (
	"sync/atomic"
	"time"
	"unsafe"

	"nowa/internal/replay"
)

// Stall recovery (DESIGN.md §15.1): the watchdog turned from detector
// into actuator. A strand that seizes its OS thread — a blocking
// syscall, a pathological user function, an injected Chaos.StallWorker —
// pins a worker token and silently shrinks the run's parallelism. With
// Config.StallThreshold set, the supervisor's stall row (armStallRow)
// seizes a worker whose heartbeat (bumped wherever a token provably
// passes through the scheduler) stays stale while runnable work exists,
// and dispatches a *supplemental worker* on an extended slot: a full
// scheduling participant with a token and a slot of its own, which
// inherits the seized worker's duty but never its owner-only storage —
// the seized strand still holds token w. The worker's return shows at
// its next scheduler touch, as a re-entry CAS on its health word; the
// supervisor then flags the supplement, which retires once its own
// deque is empty. A false seizure costs transient oversubscription,
// never correctness.
//
// Memory ordering: the retiring supplement frees its vessel and drains
// bookkeeping before its release-CAS supRetiring→supIdle, which the
// supervisor's acquire-load of supIdle orders before the next arming;
// the health word carries the seize/re-entry edge the same way. Both
// words are CAS-only state machines, declared to the fsm analyzer below.

// Per-worker health word phases. The zero value is healthy.
const (
	// wsHealthy: the worker's token is circulating normally.
	wsHealthy uint32 = iota
	// wsSeized: the supervisor judged the worker stalled (heartbeat
	// stale past StallThreshold with runnable work present); a
	// supplement is being arranged.
	wsSeized
	// wsSupplemented: a supplemental worker is live on the seized
	// worker's behalf.
	wsSupplemented
)

// Supplement slot phases. The zero value is idle.
const (
	// supIdle: the extended slot is free for the supervisor to arm.
	supIdle uint32 = iota
	// supArmed: a supplemental worker is live on this slot.
	supArmed
	// supRetiring: the supervisor asked the supplement to retire; it
	// honours the flag at its next steal-loop pass.
	supRetiring
)

// hbSlot is one worker's heartbeat: a monotonic counter bumped at every
// scheduler touch of the worker's token. Written by whichever strand
// holds the token, read by the supervisor; padded like the RNG streams
// so supervisor sampling never bounces a worker's line.
type hbSlot struct {
	n atomic.Uint64
	_ [120]byte
}

// healthSlot is one worker's seized word (see the ws* phases). The
// supervisor takes healthy>seized(>supplemented); the returning worker
// takes the re-entry edges back to healthy.
type healthSlot struct {
	//nowa:fsm phases=wsHealthy,wsSeized,wsSupplemented transitions=wsHealthy>wsSeized,wsSeized>wsSupplemented,wsSeized>wsHealthy,wsSupplemented>wsHealthy
	state atomic.Uint32
	_     [124]byte
}

// supSlot is one extended slot's lifecycle word plus the base worker it
// supplements (watch, valid while armed). Only the supervisor arms and
// flags; only the retiring supplement completes the cycle back to idle.
type supSlot struct {
	//nowa:fsm phases=supIdle,supArmed,supRetiring transitions=supIdle>supArmed,supArmed>supRetiring,supRetiring>supIdle
	state atomic.Uint32
	watch atomic.Int32
	_     [120]byte
}

// Compile-time pad guards, same discipline as vesselFreeList/rngState.
const (
	_ uintptr = unsafe.Sizeof(hbSlot{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(hbSlot{})
	_ uintptr = unsafe.Sizeof(healthSlot{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(healthSlot{})
	_ uintptr = unsafe.Sizeof(supSlot{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(supSlot{})
)

// beat bumps slot w's heartbeat. Callers gate on rt.stallOn, so the
// disabled configuration pays nothing. Supplemental slots bump too —
// harmless, the supervisor samples base workers only.
//
//nowa:hotpath
func (rt *Runtime) beat(w int) {
	rt.hb[w].n.Add(1)
}

// stallFinishCheck is the strand-finish stall-recovery hook: heartbeat
// plus the re-entry CAS when this token was seized while its strand ran
// long. One atomic add and one predictable load in the healthy case.
//
//nowa:hotpath
func (rt *Runtime) stallFinishCheck(w int) {
	rt.beat(w)
	if rt.wstate[w].state.Load() != wsHealthy {
		rt.seizedReentry(w)
	}
}

// stallStealCheck is the steal-loop stall-recovery hook, run once per
// pass: heartbeat, re-entry, and — for supplements — the retire flag.
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
	s := &rt.sup[w-rt.cfg.Workers]
	return s.state.Load() == supRetiring && rt.deques[w].Size() == 0
}

// seizedReentry is the returning worker's side of the seize protocol:
// one CAS from whichever seized phase the supervisor left the health
// word in back to healthy. The supervisor's next tick observes the
// transition and flags the supplement to retire.
//
//nowa:coldpath runs only while the health word is off healthy — a detected stall returning, by definition rare
func (rt *Runtime) seizedReentry(w int) {
	for {
		switch rt.wstate[w].state.Load() {
		case wsSeized:
			if rt.wstate[w].state.CompareAndSwap(wsSeized, wsHealthy) {
				return
			}
		case wsSupplemented:
			if rt.wstate[w].state.CompareAndSwap(wsSupplemented, wsHealthy) {
				return
			}
		default:
			return
		}
	}
}

// retireTokenFrom retires the token held on slot w, routing supplement
// tokens through their slot bookkeeping first.
//
//nowa:coldpath runs once per token per Run, at drain time
func (rt *Runtime) retireTokenFrom(w int) {
	if rt.stallOn && w >= rt.cfg.Workers {
		rt.retireSupplement(w)
		return
	}
	rt.retireToken()
}

// retireSupplement completes a supplement's lifecycle: slot back to
// idle (the release edge the next arming acquires), the retirement
// counted, the token surrendered. The armed→retiring CAS covers the
// run-wind-down path, where the supplement retires on done/cancel
// before the supervisor ever flags it.
//
//nowa:coldpath runs once per supplement retirement
func (rt *Runtime) retireSupplement(w int) {
	s := &rt.sup[w-rt.cfg.Workers]
	s.state.CompareAndSwap(supArmed, supRetiring)
	if s.state.CompareAndSwap(supRetiring, supIdle) {
		rt.supRetired.Add(1)
		if rt.recordOn {
			rt.rep.RecordExternal(replay.KSupplement, replay.SupRetire, uint16(w-rt.cfg.Workers))
		}
	}
	rt.retireToken()
}

// seizeWorker marks base worker w seized and dispatches a supplemental
// worker on a free extended slot. Supervisor-only. Every failure path
// rolls the health word back to healthy so a later tick retries; the
// rollback CAS may lose to the worker's own re-entry, which is the same
// outcome. The token raise CASes n→n+1 only while n>0: once the run's
// last token retires (n==0 closes finished), no supplement may join
// the run, so the completion broadcast fires exactly once.
func (rt *Runtime) seizeWorker(w int) {
	if !rt.wstate[w].state.CompareAndSwap(wsHealthy, wsSeized) {
		return
	}
	rt.seized.Add(1)
	if rt.recordOn {
		rt.rep.RecordExternal(replay.KSeized, 0, uint16(w))
	}
	slot := -1
	for i := range rt.sup {
		if rt.sup[i].state.Load() == supIdle {
			slot = i
			break
		}
	}
	if slot < 0 {
		// All supplements busy: stand down, retry on a later tick.
		rt.wstate[w].state.CompareAndSwap(wsSeized, wsHealthy)
		return
	}
	for {
		n := rt.tokensLeft.Load()
		if n <= 0 {
			// The run is completing; supplementing now could double-close
			// the completion broadcast.
			rt.wstate[w].state.CompareAndSwap(wsSeized, wsHealthy)
			return
		}
		if rt.tokensLeft.CompareAndSwap(n, n+1) {
			break
		}
	}
	s := &rt.sup[slot]
	s.watch.Store(int32(w))
	s.state.CompareAndSwap(supIdle, supArmed)
	ws := rt.cfg.Workers + slot
	// Publish the slot as a steal victim before the supplement can
	// publish continuations into it.
	for {
		hi := rt.victimHi.Load()
		if int32(ws+1) <= hi || rt.victimHi.CompareAndSwap(hi, int32(ws+1)) {
			break
		}
	}
	v := rt.getVessel(ws)
	v.disp = dispatch{worker: ws}
	v.pk.deliver()
	rt.supplemented.Add(1)
	if rt.recordOn {
		rt.rep.RecordExternal(replay.KSupplement, replay.SupArm, uint16(slot))
	}
	// The worker may already have re-entered (its CAS to healthy wins);
	// then the supervisor's retire pass flags this very supplement on
	// the next tick — self-healing, never stuck.
	rt.wstate[w].state.CompareAndSwap(wsSeized, wsSupplemented)
}

// retireRecoveredSupplements flags for retirement every armed
// supplement whose watched worker has re-entered, and wakes parked
// thieves so a parked supplement notices promptly.
func (rt *Runtime) retireRecoveredSupplements() {
	for i := range rt.sup {
		s := &rt.sup[i]
		if s.state.Load() != supArmed {
			continue
		}
		if rt.wstate[int(s.watch.Load())].state.Load() == wsHealthy {
			if s.state.CompareAndSwap(supArmed, supRetiring) {
				rt.wakeThieves()
			}
		}
	}
}

// resetStallState rearms the per-run stall-recovery state. Called from
// runInternal before any token exists, so the plain stores race with
// nothing; all stores target zero phases.
func (rt *Runtime) resetStallState() {
	for i := range rt.wstate {
		rt.wstate[i].state.Store(wsHealthy)
	}
	for i := range rt.sup {
		rt.sup[i].state.Store(supIdle)
		rt.sup[i].watch.Store(0)
	}
	rt.victimHi.Store(int32(rt.cfg.Workers))
}

// armStallRow arms the supervisor's stall row for one run. Every tick (a
// quarter of StallThreshold, floored at 100µs) it flags recovered
// supplements, then seizes each base worker whose heartbeat stayed
// unchanged for a full threshold of consecutive ticks with runnable work
// at every one: progress or a workless tick resets the count. Stopping
// the row at run end returns only once no pass is in progress, so no
// seizure lands after Run returns.
func (rt *Runtime) armStallRow() *Row {
	tick := max(rt.cfg.StallThreshold/4, 100*time.Microsecond)
	need := max(int(rt.cfg.StallThreshold/tick), 1)
	last, stale := make([]uint64, rt.cfg.Workers), make([]int, rt.cfg.Workers)
	for w := range last {
		last[w] = rt.hb[w].n.Load()
	}
	return rt.arm(&Row{kind: rowStall, period: tick, pass: func() {
		rt.retireRecoveredSupplements()
		if rt.done.Load() || rt.cancel.Cancelled() {
			return
		}
		// Runnable work — a non-empty deque (supplements' included) or a
		// queued submission no token has taken — is what makes a stale
		// heartbeat a stall rather than idleness.
		work := rt.anyDequeNonEmpty() || rt.submissionsQueued()
		for w := range last {
			cur := rt.hb[w].n.Load()
			if cur != last[w] || !work || rt.wstate[w].state.Load() != wsHealthy {
				last[w], stale[w] = cur, 0
				continue
			}
			if stale[w]++; stale[w] >= need {
				stale[w] = 0
				rt.seizeWorker(w)
			}
		}
	}})
}
