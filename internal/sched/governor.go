package sched

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"nowa/internal/api"
	"nowa/internal/cactus"
	"nowa/internal/replay"
)

// Stats is a snapshot of the runtime's resource accounting: the
// runtime-agnostic api.ResourceStats (vessel and stack population,
// budget-degradation, stall-recovery and wait tallies — see the field
// docs there) plus the gauges only this runtime can report. The leak
// reconciliations (VesselsLeaked, StacksLeaked) and VesselsPooled need
// the owner-local caches, so they are computed only while the runtime
// is idle; mid-run they read 0 and -1. When idle every dispatched
// supplement has retired (WorkersSupplemented == SupplementsRetired)
// and every wait has ended (BlockedLive == 0, BlockedWaits ==
// ResumedWaits + AbortedWaits) — the same reconciliation that proves
// VesselsLeaked == 0.
type Stats struct {
	api.ResourceStats
	// VesselsPooled counts the vessels sitting in free lists.
	VesselsPooled int64
	// BlockedLive gauges the strands currently parked on an external
	// wait (block.go).
	BlockedLive int64
	// Stacks is the cactus pool's own snapshot.
	Stacks cactus.Stats
}

// Stats returns the runtime's resource accounting. Safe to call at any
// time.
func (rt *Runtime) Stats() Stats {
	agg := rt.rec.Aggregate()
	st := Stats{VesselsPooled: -1, BlockedLive: rt.blockedLive.Load(), Stacks: rt.pool.Stats()}
	st.ResourceStats = api.ResourceStats{
		VesselHighWater:     rt.vHighWater.Load(),
		VesselsTrimmed:      rt.vTrimmed.Load(),
		StacksLive:          st.Stacks.Allocated,
		StacksTrimmed:       st.Stacks.Trimmed,
		DegradedSpawns:      agg.DegradedSpawns,
		TokenKeepSyncs:      agg.TokenKeepSyncs,
		ScopesLeaked:        rt.scopesLeaked.Load(),
		WorkersSeized:       rt.seized.Load(),
		WorkersSupplemented: rt.supplemented.Load(),
		SupplementsRetired:  rt.supRetired.Load(),
		BlockedWaits:        agg.BlockedWaits,
		BlockedHighWater:    rt.blockedHW.Load(),
		ResumedWaits:        agg.ResumedWaits,
		AbortedWaits:        agg.AbortedWaits,
		WakeupsLost:         agg.WakeupsLost,
	}
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
// parked; every eagerly published continuation was popped back or
// stolen (trace.Counters.CheckQuiescent) — cancelled runs and
// submissions included: a spawn run inline because of cancellation or
// the resource governor never enters Spawns.
func (rt *Runtime) CheckIdle() error {
	if left := rt.tokensLeft.Load(); left != 0 {
		return fmt.Errorf("tokens: %d tokens unaccounted", left)
	}
	for w := range rt.deques {
		if n := rt.deques[w].Size(); n != 0 {
			return fmt.Errorf("quiescence: deque %d holds %d continuations", w, n)
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
	case st.BlockedWaits != st.ResumedWaits+st.AbortedWaits:
		return fmt.Errorf("wait-leak: BlockedWaits(%d) != ResumedWaits(%d)+AbortedWaits(%d)",
			st.BlockedWaits, st.ResumedWaits, st.AbortedWaits)
	case st.BlockedLive != 0:
		return fmt.Errorf("wait-leak: %d waiters still parked", st.BlockedLive)
	}
	if err := rt.Counters().CheckQuiescent(); err != nil {
		return fmt.Errorf("counters: %v", err)
	}
	return nil
}

// ResourceStats implements api.ResourceReporter.
func (rt *Runtime) ResourceStats() api.ResourceStats { return rt.Stats().ResourceStats }

// countPooledLocked sums the vessel free lists. Caller holds govMu and
// the runtime is idle, which is what makes reading the owner-local
// caches safe: no token holder exists, and Run start is held off.
func (rt *Runtime) countPooledLocked() int {
	rt.vglobal.mu.Lock()
	n := len(rt.vglobal.free)
	rt.vglobal.mu.Unlock()
	for w := range rt.vlocal {
		n += len(rt.vlocal[w].free)
	}
	return n
}

// TrimToward reclaims pooled resources toward the floors: pooled vessel
// goroutines are stopped until VesselsLive would drop to vesselFloor,
// and the stack pool is trimmed toward stackFloor live stacks. Busy
// resources are never touched, so the floors are reached only as far as
// the free lists allow. Safe to call at any time (mid-run trims are
// restricted to the mutex-guarded global structures). Returns the
// number of items reclaimed.
func (rt *Runtime) TrimToward(vesselFloor, stackFloor int) int {
	n := rt.trimVessels(vesselFloor)
	n += rt.pool.Trim(stackFloor)
	if rt.recordOn && n > 0 {
		// The trimming goroutine (the supervisor, or any caller) holds no
		// worker token, so the trim goes to the recorder's mutex-guarded
		// external stream.
		arg := n
		if arg > 65535 {
			arg = 65535
		}
		rt.rep.RecordExternal(replay.KGov, 0, uint16(arg))
	}
	return n
}

// trimVessels stops pooled vessels until the live count reaches floor
// or the reachable free lists run dry. The global overflow list is
// mutex-guarded and fair game at any time; the owner-local caches are
// only touched when the runtime is idle, under govMu, which holds off
// the next Run start for the duration.
func (rt *Runtime) trimVessels(floor int) int {
	rt.govMu.Lock()
	defer rt.govMu.Unlock()
	rt.allMu.Lock()
	closed := rt.closed
	rt.allMu.Unlock()
	if closed {
		return 0
	}
	var victims []*vessel
	above := func() bool {
		return rt.vLive.Load()-int64(len(victims)) > int64(floor)
	}
	rt.vglobal.mu.Lock()
	for above() {
		n := len(rt.vglobal.free)
		if n == 0 {
			break
		}
		victims = append(victims, rt.vglobal.free[n-1])
		rt.vglobal.free[n-1] = nil
		rt.vglobal.free = rt.vglobal.free[:n-1]
	}
	rt.vglobal.mu.Unlock()
	if !rt.running.Load() {
		for w := range rt.vlocal {
			lf := &rt.vlocal[w]
			for above() {
				n := len(lf.free)
				if n == 0 {
					break
				}
				victims = append(victims, lf.free[n-1])
				lf.free[n-1] = nil
				lf.free = lf.free[:n-1]
			}
		}
	}
	for _, v := range victims {
		rt.stopVessel(v) //nowa:lock-ok the victims are pooled (parked) vessels already unlinked from every free list; their parkers have a spinning or blocked owner, so deliver's buffered send cannot block
	}
	return len(victims)
}

// stopVessel retires one pooled vessel: removed from the all-vessels
// registry (so Close will not double-stop it), told to exit, and
// subtracted from the live count.
func (rt *Runtime) stopVessel(v *vessel) {
	rt.allMu.Lock()
	for i, av := range rt.allVessels {
		if av == v {
			last := len(rt.allVessels) - 1
			rt.allVessels[i] = rt.allVessels[last]
			rt.allVessels[last] = nil
			rt.allVessels = rt.allVessels[:last]
			break
		}
	}
	rt.allMu.Unlock()
	v.disp = retire
	v.pk.deliver()
	rt.vLive.Add(-1)
	rt.vTrimmed.Add(1)
}

// GovernorConfig parameterises StartGovernor.
type GovernorConfig struct {
	Tick time.Duration // evaluation period (default 100ms)
	// MemoryBudget is the byte budget; zero honours the process's soft
	// memory limit (GOMEMLIMIT / debug.SetMemoryLimit), and with neither
	// set there is never any pressure.
	MemoryBudget int64
	// VesselFloor and StackFloor are the live-vessel and live-stack
	// targets under severe pressure (default Workers — one vessel per
	// token, the minimum a Run needs). Mild pressure trims only down to
	// twice the floors, keeping a warm working set.
	VesselFloor, StackFloor int
	// OnTrim observes each trim (nil: log to stderr). It runs on the
	// supervisor goroutine: a blocking hook delays stall recovery, and it
	// must not call Stop or Close.
	OnTrim func(TrimReport)
}

// TrimReport describes one pressure evaluation that trimmed.
type TrimReport struct {
	Name      string // the runtime's name
	Severity  int    // the admission grade: 1 mild, 2 severe
	Used      int64  // bytes in use at evaluation time
	Budget    int64  // the budget usage was compared against
	Reclaimed int    // items TrimToward reclaimed
}

// Memory-pressure grades, as grade computes them and the admission window
// reads them: plain ints, so the admission fast path compares against
// constants.
const (
	gradeNone   = 0
	gradeMild   = 1
	gradeSevere = 2
)

// grade maps memory usage against a budget onto the admission grades:
// mild from 85 % of the budget, severe at the budget. No budget, no
// pressure.
func grade(used, budget int64) int {
	switch {
	case budget <= 0:
		return gradeNone
	case used >= budget:
		return gradeSevere
	case float64(used) >= 0.85*float64(budget):
		return gradeMild
	}
	return gradeNone
}

// StartGovernor arms the supervisor's pressure row: every Tick it grades
// process memory usage against the budget, hands the grade to the
// admission window (SetAdmissionPressure; none included, so pressure is
// seen to clear) and, under pressure, trims the vessel free lists and the
// stack pool toward the floors (severe) or twice the floors (mild) with
// TrimToward, which is safe mid-run.
func (rt *Runtime) StartGovernor(cfg GovernorConfig) *Row {
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	if cfg.VesselFloor <= 0 {
		cfg.VesselFloor = rt.cfg.Workers
	}
	if cfg.StackFloor <= 0 {
		cfg.StackFloor = rt.cfg.Workers
	}
	if cfg.OnTrim == nil {
		cfg.OnTrim = func(r TrimReport) {
			fmt.Fprintf(os.Stderr, "governor: %s pressure on %q (%d/%d bytes), reclaimed %d pooled items\n",
				[...]string{"none", "mild", "severe"}[r.Severity], r.Name, r.Used, r.Budget, r.Reclaimed)
		}
	}
	r := &Row{kind: rowPressure, period: cfg.Tick}
	r.pass = func() {
		budget, used := cmp.Or(cfg.MemoryBudget, memLimit()), int64(0)
		if budget > 0 {
			used = memUsage()
		}
		sev := grade(used, budget)
		rt.SetAdmissionPressure(sev)
		if sev == gradeNone {
			return
		}
		k := 3 - sev // mild trims to twice the floors
		n := rt.TrimToward(k*cfg.VesselFloor, k*cfg.StackFloor)
		r.acts.Add(1)
		cfg.OnTrim(TrimReport{Name: rt.cfg.Name, Severity: sev, Used: used, Budget: budget, Reclaimed: n})
	}
	return rt.arm(r)
}

// memUsage reads the two memory classes the scheduler's pools grow: heap
// spans in use and goroutine stacks.
func memUsage() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse + ms.StackInuse)
}

// memLimit reads the process's soft memory limit without changing it; 0
// when unset.
func memLimit() int64 {
	if l := debug.SetMemoryLimit(-1); l != math.MaxInt64 {
		return l
	}
	return 0
}
