package main

import (
	"time"

	"nowa"
	"nowa/internal/sched"
	"nowa/internal/trace"
)

// newRuntime builds the protagonist: the nowa variant (CL deque and
// wait-free join), eager where the workload's kernels block.
func newRuntime(workers int, eager bool) *sched.Runtime {
	var rt nowa.Runtime
	if eager {
		rt = nowa.NewLimited(nowa.VariantNowa, workers, nowa.Limits{Spawn: nowa.SpawnEager})
	} else {
		rt = nowa.New(nowa.VariantNowa, workers)
	}
	return rt.(*sched.Runtime)
}

// counterMetrics turns a Counters() delta over elapsed into the per-layer
// count metrics.
func counterMetrics(before, after trace.Counters, elapsed time.Duration, vals map[string]float64) {
	d := func(a, b int64) float64 { return float64(a - b) }
	spawns := d(after.Spawns, before.Spawns)
	steals := d(after.Steals, before.Steals)
	failed := d(after.FailedSteals, before.FailedSteals)
	local := d(after.StackLocalGets, before.StackLocalGets)
	global := d(after.StackGlobalGets, before.StackGlobalGets)
	blocked := d(after.BlockedWaits, before.BlockedWaits)

	vals["sched.spawns"] = spawns
	vals["sched.spawns_per_s"] = ratio(spawns, elapsed.Seconds())
	vals["sched.inline_share"] = ratio(d(after.InlineRuns, before.InlineRuns), spawns)
	vals["sched.promoted_share"] = ratio(d(after.PromotedSpawns, before.PromotedSpawns), spawns)
	vals["sched.steals"] = steals
	vals["sched.steal_success_share"] = ratio(steals, steals+failed)
	vals["sched.suspensions"] = d(after.Suspensions, before.Suspensions)
	vals["sched.thief_parks"] = d(after.ThiefParks, before.ThiefParks)
	vals["sched.thief_wakeups"] = d(after.ThiefWakeups, before.ThiefWakeups)
	vals["sched.wakeups_lost"] = d(after.WakeupsLost, before.WakeupsLost)
	vals["cactus.local_get_share"] = ratio(local, local+global)
	vals["nowa.blocked_waits"] = blocked
	vals["nowa.resumed_share"] = ratio(d(after.ResumedWaits, before.ResumedWaits), blocked)
	vals["nowa.aborted_waits"] = d(after.AbortedWaits, before.AbortedWaits)
}

// checkClosed asserts, on a runtime that nowa.Close returned from, the
// bars the torture harness holds every run to: every wait ended exactly
// once, and no vessel, stack, scope or worker token is unaccounted for.
// Each violation is named in the report and counted as a failure.
func checkClosed(rt *sched.Runtime, rep *report) {
	st, _ := nowa.Resources(rt)
	if st.BlockedWaits != st.ResumedWaits+st.AbortedWaits {
		rep.violate("wait-leak: BlockedWaits %d != ResumedWaits %d + AbortedWaits %d",
			st.BlockedWaits, st.ResumedWaits, st.AbortedWaits)
	}
	if st.VesselsLeaked != 0 {
		rep.violate("vessel-leak: %d vessels never returned to a free list", st.VesselsLeaked)
	}
	if st.StacksLeaked != 0 {
		rep.violate("stack-leak: %d stacks unaccounted", st.StacksLeaked)
	}
	if st.ScopesLeaked != 0 {
		rep.violate("scope-leak: %d scopes abandoned", st.ScopesLeaked)
	}
	if left := rt.DebugTokensLeft(); left != 0 {
		rep.violate("token-leak: %d worker tokens unaccounted after Close", left)
	}
}

// checkService asserts the admission accounting of a drained service:
// every Submit was admitted or refused, and every admitted submission
// ended in exactly one outcome (expiries are tallied under Cancelled).
func checkService(ss nowa.ServiceStats, rep *report) {
	if ss.Submitted != ss.Admitted+ss.Rejected {
		rep.violate("admission: submitted %d != admitted %d + rejected %d", ss.Submitted, ss.Admitted, ss.Rejected)
	}
	if got := ss.Completed + ss.Shed + ss.Cancelled + ss.Panicked; got != ss.Admitted {
		rep.violate("outcomes: admitted %d != completed %d + shed %d + cancelled %d + panicked %d",
			ss.Admitted, ss.Completed, ss.Shed, ss.Cancelled, ss.Panicked)
	}
	if ss.Queued != 0 || ss.InFlight != 0 {
		rep.violate("drain: %d queued and %d in flight after Close", ss.Queued, ss.InFlight)
	}
}
