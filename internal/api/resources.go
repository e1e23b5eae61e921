package api

// ResourceStats is a runtime-agnostic snapshot of pooled-resource
// accounting: how many execution vessels and stacks a runtime holds and
// what leaked.
// Runtimes without a vessel model (the child-stealing and OpenMP-like
// comparators, the serial elision) simply do not implement
// ResourceReporter.
type ResourceStats struct {
	// VesselsLive is the number of pooled execution goroutines in
	// existence; VesselHighWater is the maximum ever reached. No budget
	// bounds it: the computation does — a suspension gives its worker
	// token away, so the population stays within the busy-leaves bound
	// (per worker, about the spawn depth plus the free-list cache).
	VesselsLive     int64
	VesselHighWater int64
	// VesselsLeaked is the idle-time reconciliation of created versus
	// recycled (nonzero indicates a runtime bug).
	VesselsLeaked int64
	// StacksLive and StacksLeaked are the same two for the cactus stack
	// pool.
	StacksLive   int64
	StacksLeaked int64
	// ScopesLeaked counts join scopes abandoned on panic paths.
	ScopesLeaked int64
	// Stall-recovery tallies (all zero unless the runtime was built
	// with a stall threshold): WorkersSeized counts stall judgements,
	// WorkersSupplemented counts supplemental workers dispatched, and
	// SupplementsRetired counts supplements that returned their token —
	// equal to WorkersSupplemented at quiescence.
	WorkersSeized       int64
	WorkersSupplemented int64
	SupplementsRetired  int64
	// Wait accounting (blocking primitives — futures, channels,
	// barriers): BlockedWaits counts strand suspensions on an external
	// wait, ResumedWaits and AbortedWaits how each wait ended. The
	// conservation invariant at quiescence is
	// BlockedWaits == ResumedWaits + AbortedWaits (no waiter leaked
	// asleep, none woken twice). WakeupsLost counts thief parks declined
	// because a wakeup was pending — a liveness tally, not a leak.
	BlockedWaits int64
	ResumedWaits int64
	AbortedWaits int64
	WakeupsLost  int64
}

// ResourceReporter is implemented by runtimes that keep resource
// accounting. Use it via a type assertion (or nowa.Resources).
type ResourceReporter interface {
	ResourceStats() ResourceStats
}
