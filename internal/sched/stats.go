package sched

import (
	"fmt"

	"nowa/internal/cactus"
)

// Stats is a snapshot of the runtime's resource accounting. The leak
// reconciliations (VesselsLeaked, StacksLeaked) and VesselsPooled need
// the owner-local caches, so they are computed only while the runtime
// is idle; mid-run they read 0 and -1. When idle every dispatched
// supplement has retired (WorkersSupplemented == SupplementsRetired)
// and every wait has ended (BlockedLive == 0, BlockedWaits ==
// ResumedWaits + AbortedWaits) — the same reconciliation that proves
// VesselsLeaked == 0.
type Stats struct {
	// VesselsLive is the number of pooled execution goroutines in
	// existence; VesselHighWater is the maximum ever reached. No budget
	// bounds it: the computation does — a suspension gives its worker
	// token away, so the population stays within the busy-leaves bound
	// (per worker, about the spawn depth plus the free-list cache).
	VesselsLive     int64
	VesselHighWater int64
	// VesselsPooled counts the vessels sitting in free lists;
	// VesselsLeaked is VesselsLive minus it (nonzero indicates a
	// runtime bug).
	VesselsPooled int64
	VesselsLeaked int64
	// StacksLive and StacksLeaked are the same two for the cactus stack
	// pool.
	StacksLive   int64
	StacksLeaked int64
	// ScopesLeaked counts join scopes abandoned on panic paths.
	ScopesLeaked int64
	// Stall-recovery tallies (all zero unless the runtime was built
	// with a stall threshold): WorkersSupplemented counts supplemental
	// workers dispatched, SupplementsRetired those that returned their
	// token — equal at quiescence.
	WorkersSupplemented int64
	SupplementsRetired  int64
	// Wait accounting (blocking primitives — futures, channels,
	// barriers), read from the trace counters: BlockedWaits counts
	// strand suspensions on an external wait, ResumedWaits and
	// AbortedWaits how each wait ended; BlockedLive, derived from the
	// three, gauges the strands parked on one now: exact at quiescence,
	// it may read high by waits resumed but not yet flushed. WakeupsLost
	// counts thief parks declined because a wakeup was pending — a
	// liveness tally, not a leak.
	BlockedWaits int64
	ResumedWaits int64
	AbortedWaits int64
	BlockedLive  int64
	WakeupsLost  int64
	// Stacks is the cactus pool's own snapshot.
	Stacks cactus.Stats
}

// Stats returns the runtime's resource accounting. Safe to call at any
// time.
func (rt *Runtime) Stats() Stats {
	agg := rt.rec.Aggregate()
	st := Stats{
		VesselHighWater:     rt.vHighWater.Load(),
		VesselsPooled:       -1,
		ScopesLeaked:        rt.scopesLeaked.Load(),
		WorkersSupplemented: rt.supplemented.Load(),
		SupplementsRetired:  rt.supRetired.Load(),
		BlockedWaits:        agg.BlockedWaits,
		ResumedWaits:        agg.ResumedWaits,
		AbortedWaits:        agg.AbortedWaits,
		BlockedLive:         rt.blockedLive(),
		WakeupsLost:         agg.WakeupsLost,
		Stacks:              rt.pool.Stats(),
	}
	st.StacksLive = st.Stacks.Allocated
	rt.govMu.Lock()
	st.VesselsLive = rt.vLive.Load()
	if !rt.running.Load() {
		st.VesselsPooled = int64(rt.countPooledLocked())
		st.VesselsLeaked = st.VesselsLive - st.VesselsPooled
		st.StacksLeaked = st.StacksLive - int64(rt.pool.FreeCount())
	}
	rt.govMu.Unlock()
	return st
}

// CheckIdle states the invariants that hold whenever no run is in flight
// — after Run returns, after Close drains a service — and names the
// first one the runtime violates as "class: detail", the class being
// what the torture harness matches reruns on. Every worker token was
// retired; no continuation survives in any deque, the supplements'
// extended slots included; every supplement stall recovery dispatched
// retired its token; no vessel, stack or scope leaked; every external
// wait ended exactly once, by resume or by abort, and nothing is still
// parked or filed in a next-wakeup slot; every eagerly published
// continuation was popped back or stolen (trace.Counters.CheckQuiescent)
// — cancelled runs and submissions included: a spawn run inline because
// of cancellation never enters Spawns.
func (rt *Runtime) CheckIdle() error {
	if left := rt.tokensLeft.Load(); left != 0 {
		return fmt.Errorf("tokens: %d tokens unaccounted", left)
	}
	for w := range rt.slots {
		if n := rt.slots[w].size(); n != 0 {
			return fmt.Errorf("quiescence: deque %d holds %d continuations", w, n)
		}
	}
	for w := range rt.slots {
		if rt.slots[w].next.Load() != nil {
			return fmt.Errorf("wait-leak: slot %d holds a wakeup no token took", w)
		}
	}
	st := rt.Stats()
	switch {
	case st.WorkersSupplemented != st.SupplementsRetired:
		return fmt.Errorf("supplement-leak: %d supplements dispatched, %d retired",
			st.WorkersSupplemented, st.SupplementsRetired)
	case st.VesselsLeaked != 0:
		return fmt.Errorf("vessel-leak: %d vessels never returned to a free list", st.VesselsLeaked)
	case st.StacksLeaked != 0:
		return fmt.Errorf("stack-leak: %d stacks unaccounted", st.StacksLeaked)
	case st.ScopesLeaked != 0:
		return fmt.Errorf("scope-leak: %d scopes abandoned", st.ScopesLeaked)
	case st.BlockedLive != 0:
		return fmt.Errorf("wait-leak: BlockedWaits(%d) != ResumedWaits(%d)+AbortedWaits(%d): %d waiters still parked",
			st.BlockedWaits, st.ResumedWaits, st.AbortedWaits, st.BlockedLive)
	}
	if err := rt.Counters().CheckQuiescent(); err != nil {
		return fmt.Errorf("counters: %v", err)
	}
	return nil
}

// countPooledLocked sums the vessel free lists. Caller holds govMu and
// the runtime is idle, which is what makes reading the owner-local
// caches safe: no token holder exists, and Run start is held off.
func (rt *Runtime) countPooledLocked() int {
	rt.vglobal.mu.Lock()
	n := len(rt.vglobal.free)
	rt.vglobal.mu.Unlock()
	for w := range rt.slots {
		n += len(rt.slots[w].free)
	}
	return n
}
