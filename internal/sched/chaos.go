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

// chaosRoll draws from slot w's stream for site and reports whether the
// injection there fires, with the probability (in 1/1024) its row of
// the chaos table configures. Only the strand holding token w calls
// this, so the stream needs no synchronisation (the token handoff
// provides the happens-before edge, as with the victim RNGs).
//
// A zero rate draws nothing. Each site has its own stream, so the k-th
// roll at a site on a slot is the same whatever the other sites did:
// arming, disarming or re-timing one injection shifts no other's draws,
// which is what lets a bundle's seeds reproduce a multi-worker failure.
//
//nowa:hotpath
func (rt *Runtime) chaosRoll(w int, site uint8) bool {
	rate := rt.cfg.Chaos.Rate(site)
	if rate <= 0 {
		return false
	}
	return rt.chaos[w].Roll(site, rate)
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
