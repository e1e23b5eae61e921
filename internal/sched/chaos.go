package sched

import (
	"time"

	"nowa/internal/chaos"
)

// chaosRoll rolls site on slot w's chaos streams (internal/chaos) and
// reports whether the injection fires. Only the strand holding token w
// calls it, so the streams need no synchronisation. Callers keep their
// rt.chaosOn gate: a chaos-off runtime pays one branch and no call.
//
//nowa:hotpath
func (rt *Runtime) chaosRoll(w int, site uint8) bool {
	return rt.slots[w].chaos.Fire(rt.cfg.Chaos, site)
}

// chaosPrePopBottom runs the finish-path injections before popBottom.
//
//nowa:hotpath
func (rt *Runtime) chaosPrePopBottom(w int) {
	if rt.chaosRoll(w, chaos.SiteStallWorker) {
		// The injected stall: this strand holds token w across the sleep,
		// which is exactly the fault StallThreshold recovery supplements.
		time.Sleep(time.Duration(rt.cfg.Chaos.StallForUS) * time.Microsecond)
	}
	if rt.chaosRoll(w, chaos.SitePopBottom) {
		rt.cfg.Chaos.Delay()
	}
}

// ChaosAbortWait reports whether a registering external waiter must
// attempt the planted self-abort (Chaos.AbortWait). Exposed on Proc for
// the blocking primitives, which live outside this package.
func (p *Proc) ChaosAbortWait() bool {
	rt := p.rt
	return rt.chaosOn && rt.chaosRoll(p.worker, chaos.SiteAbortWait)
}

// ChaosWakeDelay injects the resumer-side wakeup delay
// (Chaos.WakeupDelay) between a won waiter cell and its delivery.
// Callers are strand resumers holding a worker token.
func (p *Proc) ChaosWakeDelay() {
	rt := p.rt
	if rt.chaosOn && rt.chaosRoll(p.worker, chaos.SiteWakeDelay) {
		rt.cfg.Chaos.Delay()
	}
}

// chaosPreSync runs the explicit-sync injection: the counter-restore
// delay.
func (rt *Runtime) chaosPreSync(w int) {
	if rt.chaosRoll(w, chaos.SiteSyncDelay) {
		rt.cfg.Chaos.Delay()
	}
}
