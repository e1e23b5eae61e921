package sched

// BlockedLive exposes the derived blocked gauge to the external tests,
// which sample it mid-run far more densely than through Stats.
func BlockedLive(rt *Runtime) int64 { return rt.blockedLive() }
