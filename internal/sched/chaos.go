package sched

import (
	"runtime"
	"time"

	"nowa/internal/replay"
)

// Chaos configures seeded, deterministic fault injection at the
// protocol's race windows. The type, the injection sites and their table
// live in internal/replay, where a repro bundle serialises the very same
// struct; this file holds the scheduler side — the rolls and what fires
// when one hits.
type Chaos = replay.Chaos

// chaosRoll draws from worker w's chaos stream and reports whether the
// injection at site fires, with the probability (in 1/1024) its row of
// the chaos table configures; site also tags the roll in the schedule
// log. Only the strand holding token w calls this, so the stream needs
// no synchronisation (the token handoff provides the happens-before
// edge, as with the victim RNGs).
//
// A zero rate consumes nothing — neither the live stream nor the replay
// cursor — so unconfigured injection points never perturb the alignment
// between a capture and its replay.
//
// Under Config.Replay the recorded outcome substitutes for the RNG draw
// (the live stream does not advance), which is what makes a captured
// chaos failure reproducible under a different — or absent — live seed;
// a cursor mismatch falls back to the live stream and is counted as a
// divergence.
//
//nowa:hotpath
func (rt *Runtime) chaosRoll(w int, site uint8) bool {
	rate := rt.cfg.Chaos.Rate(site)
	if rate <= 0 {
		return false
	}
	// Supplemental slots (w >= len(repCur)) have no replay cursor: a
	// capture only carries base-worker streams, so supplements always
	// draw live.
	if rt.replayOn && w < len(rt.repCur) {
		if fired, ok := rt.repCur[w].NextChaos(site); ok {
			if rt.recordOn {
				rt.recordRoll(w, site, fired)
			}
			return fired
		}
	}
	fired := int(rt.chaosRngs[w].next()&1023) < rate
	if rt.recordOn {
		rt.recordRoll(w, site, fired)
	}
	return fired
}

// recordRoll logs one chaos-roll outcome.
//
//nowa:hotpath
func (rt *Runtime) recordRoll(w int, site uint8, fired bool) {
	var arg uint16
	if fired {
		arg = 1
	}
	rt.rep.Record(w, replay.KChaos, site, arg)
}

// chaosDelay yields the strand DelaySpins times, long enough for a
// concurrently running thief or joiner to win the disputed race.
func (rt *Runtime) chaosDelay() {
	for i := 0; i < rt.cfg.Chaos.DelaySpins; i++ {
		runtime.Gosched()
	}
}

// chaosPreSteal runs the thief-side injections; it reports true when the
// steal attempt must be abandoned as a forced failure.
func (rt *Runtime) chaosPreSteal(w int) bool {
	if rt.chaosRoll(w, replay.SiteStealFail) {
		return true
	}
	if rt.chaosRoll(w, replay.SiteStealDelay) {
		rt.chaosDelay()
	}
	return false
}

// chaosPrePopBottom runs the finish-path injections before popBottom.
//
//nowa:hotpath
func (rt *Runtime) chaosPrePopBottom(w int) {
	if rt.chaosRoll(w, replay.SiteStallWorker) {
		// The injected stall: this strand holds token w across the sleep,
		// which is exactly the fault StallThreshold recovery supplements.
		time.Sleep(time.Duration(rt.cfg.Chaos.StallForUS) * time.Microsecond)
	}
	if rt.chaosRoll(w, replay.SitePopBottom) {
		rt.chaosDelay()
	}
}

// ChaosAbortWait reports whether a registering external waiter must
// attempt the planted self-abort (Chaos.AbortWait). Exposed on Proc for
// the blocking primitives, which live outside this package.
func (p *Proc) ChaosAbortWait() bool {
	rt := p.rt
	return rt.chaosOn && rt.chaosRoll(p.worker, replay.SiteAbortWait)
}

// ChaosWakeDelay injects the resumer-side wakeup delay
// (Chaos.WakeupDelay) between a won waiter cell and its delivery.
// Callers are strand resumers holding a worker token.
func (p *Proc) ChaosWakeDelay() {
	rt := p.rt
	if rt.chaosOn && rt.chaosRoll(p.worker, replay.SiteWakeDelay) {
		rt.chaosDelay()
	}
}

// chaosPreSync runs the explicit-sync injection: the counter-restore
// delay.
func (rt *Runtime) chaosPreSync(w int) {
	if rt.chaosRoll(w, replay.SiteSyncDelay) {
		rt.chaosDelay()
	}
}
