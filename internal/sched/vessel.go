package sched

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"nowa/internal/api"
	"nowa/internal/cactus"
	"nowa/internal/replay"
	"nowa/internal/trace"
)

// token is ownership of one worker: the strand holding token w *is* worker
// w until it parks or finishes. Exactly one live strand holds each token.
type token struct {
	worker int
}

// dispatch activates a vessel: run fn as a child of parent on the given
// worker. A nil fn dispatches an initial thief (idle token at Run start);
// stop retires the vessel goroutine (Close).
type dispatch struct {
	fn     func(api.Ctx)
	parent *scope // nil for a root strand (a run's, a submission's) and for initial thieves
	worker int
	stop   bool
	sub    *Submission // service submission this strand belongs to, if any
}

// cont is the deque element: the stealable continuation of a parked
// vessel. Each vessel owns exactly one continuation slot — a spawning
// function has at most one pending continuation at a time (§II-B) — so
// publishing one allocates nothing. Only an eager spawn publishes; a lazy
// spawn whose token carries no steal demand touches no deque at all (see
// scope.Spawn).
type cont struct {
	v     *vessel
	scope *scope // the spawning function's scope, for the thief's OnSteal
}

// demandWord is one scheduling slot's steal-demand flag (Runtime.demand):
// a thief that found the slot's deque empty sets it, the strand holding
// the slot's token reads it at each lazy spawn and answers a set flag
// with an eager handoff. Thieves write, the owner only reads — until it
// answers — so the no-steal spawn pays one load of a line nobody else is
// writing. Padded like the other per-slot words.
type demandWord struct {
	n atomic.Uint32
	_ [128 - 4]byte
}

// eagerBurstLen is how many consecutive spawns a vessel runs eagerly
// after a promotion signal (thief interest or a suspension). Long enough
// to re-fill the deque with real continuations while thieves are hungry;
// short enough that a workload phase change decays back to lazy quickly.
const eagerBurstLen = 64

// vessel is a pooled goroutine that executes strands. It stands in for a
// linear stack of the original runtime; its cactus.Stack payloads carry
// the RSS accounting.
//
// All rendezvous goes through pk: the vessel awaits a dispatch (disp
// payload) between strands and a resume (resumeTok payload) while its
// strand is parked at a spawn or sync point. The two waits alternate on
// the vessel goroutine and each has exactly one deliverer, so one parker
// serves both.
type vessel struct {
	rt        *Runtime
	pk        parker
	resumeTok token    // payload of a park/resume delivery
	disp      dispatch // payload of a dispatch delivery
	proc      Proc
	cont      cont
	// eagerBurst is the number of upcoming spawns this vessel runs
	// eagerly before returning to lazy execution; armed by promotion
	// signals (steal demand, suspension). Owner-only, like the scope
	// stack: only the strand running on this vessel touches it.
	eagerBurst int
	// scopes is the bottom of the strand-local scope stack backing
	// Proc.Scope, a linked list whose deeper slots sit in chunks the
	// vessel links in on first need and keeps (see scope.go); top is its
	// next free slot. Slots never move, so a scope handle stays valid
	// while a stolen child may still touch its join.
	scopes [scopeInline]scope
	top    *scope
	// stacks accumulates the pool stacks charged to this vessel's frame
	// chain (one per steal of its continuations); released when the
	// strand finishes.
	stacks []*cactus.Stack
	// wait is the strand's external blocking-wait handle (block.go). A
	// strand has at most one external wait in flight — it is parked for
	// the wait's duration — so the handle is embedded, not allocated.
	wait Waiter
	// pend batches this strand's trace-counter increments as plain adds;
	// flushCounters folds the nonzero cells into the worker block with one
	// atomic add each. Only the vessel's own goroutine touches pend — a
	// strand runs nowhere else — so the batching is race-free, and
	// flushing before every token handoff or steal-loop entry keeps the
	// aggregate monotonic for the watchdog's mid-run sampling.
	pend trace.Pending
}

// flushCounters folds the strand's batched tallies into worker w's block.
func (v *vessel) flushCounters(w int) {
	v.rt.rec.Worker(w).Flush(&v.pend)
}

// vesselFreeList is one worker's vessel cache. It is owner-local like the
// victim RNG: only the strand currently holding the worker's token pushes
// or pops, so the slice needs no lock or atomics — a vessel frees itself
// into the list of the token it holds *before* handing that token away,
// and the next holder's accesses are ordered behind that handoff.
// Diagnostic readers (DumpState) must not touch the slice; they report
// the global pool and total-created counts instead.
//
// The pad keeps adjacent workers' lists — mutated on every spawn — on
// separate cache-line pairs (128 B covers the adjacent-line prefetcher).
type vesselFreeList struct {
	free []*vessel
	_    [128 - 24]byte
}

// vesselGlobalList is the shared overflow list behind the owner-local
// caches; the mutex is only taken when a local list misses or overflows.
type vesselGlobalList struct {
	//nowa:lock level=3 name=vglobal.mu
	mu   sync.Mutex
	free []*vessel
}

// Compile-time guards: the per-worker hot structs must stay padded to a
// multiple of 128 bytes, or adjacent workers false-share.
const (
	_ uintptr = unsafe.Sizeof(vesselFreeList{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(vesselFreeList{})
	_ uintptr = unsafe.Sizeof(rngState{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(rngState{})
	_ uintptr = unsafe.Sizeof(demandWord{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(demandWord{})
)

const perWorkerVesselCap = 8

// pushBottom and popBottom route the owner-side deque operations through
// the concrete Chase–Lev type when that is the configured algorithm, so
// the compiler can inline the lock-free fast paths instead of emitting an
// interface call per spawn. Other algorithms keep the interface path.
//
//nowa:hotpath
func (rt *Runtime) pushBottom(w int, c *cont) {
	if rt.clDeques != nil {
		rt.clDeques[w].PushBottom(c)
		return
	}
	rt.deques[w].PushBottom(c)
}

//nowa:hotpath
func (rt *Runtime) popBottom(w int) (*cont, bool) {
	if rt.clDeques != nil {
		return rt.clDeques[w].PopBottom()
	}
	return rt.deques[w].PopBottom()
}

// newVessel allocates and starts a fresh vessel goroutine. The caller has
// already claimed a live-vessel slot via reserveVessel, so this only
// records the high-water mark.
//
//nowa:coldpath runs once per vessel ever created; steady state recycles vessels through the free lists and never gets here
func (rt *Runtime) newVessel() *vessel {
	for live := rt.vLive.Load(); ; {
		hw := rt.vHighWater.Load()
		if live <= hw || rt.vHighWater.CompareAndSwap(hw, live) {
			break
		}
	}
	v := &vessel{rt: rt}
	v.pk.init()
	v.proc = Proc{rt: rt, v: v}
	v.cont.v = v
	v.linkScopes(nil, v.scopes[:], false)
	v.top = &v.scopes[0]
	rt.allMu.Lock()
	if rt.closed {
		rt.allMu.Unlock()
		panic("sched: Runtime used after Close")
	}
	rt.allVessels = append(rt.allVessels, v)
	rt.allMu.Unlock()
	go v.loop()
	return v
}

// getVessel obtains a vessel with no budget: worker-local list
// (owner-only, lock-free), then the global list, then fresh. Never nil.
func (rt *Runtime) getVessel(w int) *vessel {
	return rt.getVesselBudget(w, 0)
}

// getVesselBudget obtains a vessel subject to a live-vessel budget
// (0 = unbounded). Recycled vessels cost nothing against the budget —
// they are already counted live — so the limit only gates *creation*:
// a free-list hit on the spawn path pays no budget check at all. Returns
// nil when the free lists miss and the budget is exhausted; the caller
// degrades (Spawn runs the child inline, Sync keeps its token).
//
//nowa:hotpath
func (rt *Runtime) getVesselBudget(w int, limit int64) *vessel {
	lf := &rt.vlocal[w]
	if n := len(lf.free); n > 0 {
		v := lf.free[n-1]
		lf.free[n-1] = nil
		lf.free = lf.free[:n-1]
		return v
	}
	return rt.getVesselSlow(limit)
}

// getVesselSlow is the local-cache miss path: global mutex pool, then
// fresh creation under the budget reservation.
//
//nowa:coldpath free-list miss only: takes the global mutex and may start a goroutine; steady state recycles through the owner-local caches
func (rt *Runtime) getVesselSlow(limit int64) *vessel {
	rt.vglobal.mu.Lock()
	if n := len(rt.vglobal.free); n > 0 {
		v := rt.vglobal.free[n-1]
		rt.vglobal.free[n-1] = nil
		rt.vglobal.free = rt.vglobal.free[:n-1]
		rt.vglobal.mu.Unlock()
		return v
	}
	rt.vglobal.mu.Unlock()
	if !rt.reserveVessel(limit) {
		return nil
	}
	return rt.newVessel()
}

// reserveVessel claims one slot of the live-vessel budget with a CAS
// loop, so the check and the increment are a single atomic step — a
// plain check-then-add would let concurrent reservers overshoot the cap,
// and would race with the governor's concurrent trim decrements.
func (rt *Runtime) reserveVessel(limit int64) bool {
	if limit <= 0 {
		rt.vLive.Add(1)
		return true
	}
	for {
		n := rt.vLive.Load()
		if n >= limit {
			return false
		}
		if rt.vLive.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// freeVessel returns a finished vessel to the pool of worker w. The
// caller must still hold token w: freeing happens immediately *before*
// the resume or retirement that gives the token away, which is what
// makes the local list owner-only. The vessel goroutine itself touches
// nothing but its own parker afterwards, so a new owner may dispatch it
// right away.
//
//nowa:hotpath
func (rt *Runtime) freeVessel(v *vessel, w int) {
	if rt.chaosOn && rt.chaosRoll(w, replay.SiteLeakVessel) {
		// Planted bug (Chaos.LeakVessel): drop the vessel instead of
		// pooling it. It stays counted live and registered in allVessels
		// — Close still stops its goroutine — but never returns to a free
		// list, so the idle reconciliation reports it leaked.
		return
	}
	lf := &rt.vlocal[w]
	if len(lf.free) < perWorkerVesselCap {
		lf.free = append(lf.free, v) //nowa:hotpath-ok guarded by the cap check against the pre-sized backing array (New reserves perWorkerVesselCap); never reallocates
		return
	}
	rt.freeVesselGlobal(v)
}

// freeVesselGlobal spills a vessel past the owner-local cap into the
// shared pool.
//
//nowa:coldpath local-cache overflow only; takes the global mutex and may grow the shared slice
func (rt *Runtime) freeVesselGlobal(v *vessel) {
	rt.vglobal.mu.Lock()
	rt.vglobal.free = append(rt.vglobal.free, v)
	rt.vglobal.mu.Unlock()
}

// loop is the vessel goroutine body: execute dispatched strands until the
// runtime closes. The vessel does not free itself here — it is already
// back in a free list by the time a strand's final resume hands its
// token away (see freeVessel).
func (v *vessel) loop() {
	for {
		blocked := v.pk.await(parkerSpins)
		d := v.disp
		if d.stop {
			return
		}
		v.proc.worker = d.worker
		v.proc.sub = d.sub
		if v.rt.blockRecOn && blocked {
			// Whoever dispatched handed token d.worker to this vessel, so
			// the ring write is owner-only.
			v.rt.rep.Record(d.worker, replay.KBlocked, replay.BlockDispatch, 0)
		}
		if d.fn != nil {
			v.rt.takeDemand(d.worker)
			v.runStrand(d)
		} else {
			// Initial thief: the token starts idle.
			v.rt.stealLoop(&v.proc)
		}
	}
}

// runStrand executes one strand, containing any panic so the fork/join
// protocol (and the worker token) survives: the panic is recorded and the
// strand is treated as returned, so all joins still happen and Run can
// re-raise it at the end.
func (v *vessel) runStrand(d dispatch) {
	if v.rt.recordOn {
		v.rt.rep.Record(v.proc.worker, replay.KStrandStart, 0, 0)
	}
	defer func() {
		if r := recover(); r != nil {
			v.rt.recordPanic(v.proc.sub, r)
			v.resetScopes()
			v.rt.finishStrand(v, d.parent)
		}
	}()
	d.fn(&v.proc)
	if v.rt.recordOn {
		v.rt.rep.Record(v.proc.worker, replay.KStrandEnd, 0, 0)
	}
	v.resetScopes()
	v.rt.finishStrand(v, d.parent)
}

// resetScopes reclaims the strand's scope slots at strand end. On the
// contract-abiding path every scope has already been released by its
// final Sync and this is two loads. A strand that ended with live slots —
// a panic unwound past un-synced scopes — may still have stolen children
// running that will touch those joins, so only quiescent slots are
// reclaimed: the top steps down to just above the deepest non-quiescent
// slot, which stays pinned until a later strand end on this vessel finds
// it quiescent (at worst for the vessel's lifetime — bounded, and only on
// panic paths). Pinning a slot beyond the inline ones is tallied once as
// a leaked scope, so CheckIdle reports it.
func (v *vessel) resetScopes() {
	for s := v.top.down; s != nil; s = s.down {
		if !s.quiescent() {
			if s.chunked && !s.pinned {
				s.pinned = true
				v.rt.scopesLeaked.Add(1)
			}
			return
		}
		v.top = s
		s.pinned = false
		s.rearm() // restore the armed-at-rest invariant Scope relies on
	}
}

// finishStrand implements lines 4–5 of Figure 5: after the strand's
// function returns, pop the bottom of the current worker's deque; a hit is
// the continuation we pushed (resume it — the paper's "discard and
// proceed"); a miss means it was stolen, so perform the implicit sync and
// go stealing.
//
//nowa:hotpath
func (rt *Runtime) finishStrand(v *vessel, parent *scope) {
	p := &v.proc
	w := p.worker
	rt.releaseStacks(v, w)
	if rt.stallOn {
		// Strand finish is a heartbeat site: a token pinned by a long
		// user function goes stale between two of these, which is what
		// the supervisor measures; a seized token returning lands its
		// re-entry CAS here.
		rt.stallFinishCheck(w)
	}
	if rt.chaosOn {
		rt.chaosPrePopBottom(w)
	}
	if c, ok := rt.popOwn(w, parent); ok {
		v.pend[trace.LocalResumes]++
		v.flushCounters(w)
		if rt.recordOn {
			rt.rep.Record(w, replay.KPopHit, 0, 0)
		}
		rt.freeVessel(v, w)
		c.v.resumeTok = token{worker: w}
		c.v.pk.deliver()
		return
	}
	v.pend[trace.ImplicitSyncs]++
	v.flushCounters(w)
	if rt.recordOn {
		rt.rep.Record(w, replay.KPopMiss, 0, 0)
	}
	if parent == nil {
		if v.disp.sub != nil {
			// A submission's top strand finished: its token goes back to
			// work — the next submission, a steal, or sleep.
			rt.stealLoop(p)
			return
		}
		// The root strand finished: the whole computation is done. Wake
		// any parked thieves so they observe done and retire.
		rt.freeVessel(v, w)
		rt.done.Store(true)
		rt.wakeThieves()
		rt.retireTokenFrom(w)
		return
	}
	if parent.onChildJoin() {
		if parent.keepToken {
			// The parent suspended holding its own worker token (no thief
			// vessel fit the budget — see scope.Sync). Resume it
			// with the keep-your-token sentinel and continue on this
			// token as a thief ourselves: no vessel is freed and none is
			// needed. Reading keepToken here is ordered after the
			// parent's pre-SyncBegin write by the join-counter atomics.
			parent.p.v.resumeTok = token{worker: -1}
			parent.p.v.pk.deliver()
			rt.stealLoop(p)
			return
		}
		// Sync condition holds: resume the parent suspended at its
		// explicit sync point, handing over this token.
		rt.freeVessel(v, w)
		parent.p.v.resumeTok = token{worker: w}
		parent.p.v.pk.deliver()
		return
	}
	rt.stealLoop(p)
}

// popOwn pops the bottom of deque[w] if it is the continuation parent's
// strand left there: the push spawnEager made when it dispatched the
// strand, still un-consumed. While a strand runs, the bottom of its
// token's deque is its most recent un-consumed push, so anything else
// there means that push was already consumed — stolen — and belongs to
// another chain (external waits migrate strands across tokens; CommitWait
// claims its own push first, so at strand end this is defense in depth,
// chaos interleavings included). Resuming a foreign continuation as a
// local hit would skip the join accounting its real child owes, so it is
// pushed back for the steal path, which does that accounting, with a
// thief wake mirroring Spawn's publish-then-wake order. Ancestor
// continuations deeper in the deque stay put: steals take the top first,
// and each belongs to a deeper joiner's pop.
//
//nowa:hotpath
func (rt *Runtime) popOwn(w int, parent *scope) (*cont, bool) {
	c, ok := rt.popBottom(w)
	if ok && c.scope != parent {
		rt.pushBottom(w, c)
		rt.wakeThief()
		return nil, false
	}
	return c, ok
}

// releaseStacks returns the vessel's accumulated pool stacks.
func (rt *Runtime) releaseStacks(v *vessel, w int) {
	if len(v.stacks) == 0 {
		return
	}
	for i, s := range v.stacks {
		rt.pool.Put(w, s)
		v.stacks[i] = nil
	}
	v.stacks = v.stacks[:0]
}
