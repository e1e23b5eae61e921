package sched

import (
	"context"
	rtrace "runtime/trace"
	"strconv"
	"sync"

	"nowa/internal/api"
	"nowa/internal/cactus"
	"nowa/internal/chaos"
	"nowa/internal/trace"
)

// token is ownership of one worker: the strand holding token w *is* worker
// w until it parks or finishes. Exactly one live strand holds each token.
type token struct {
	worker int
}

// dispatch activates a vessel: run fn as a child of parent on the given
// worker. A nil fn dispatches an initial thief (idle token at Run start);
// retire, the one dispatch with a negative worker, ends the vessel
// goroutine (Close, trims).
type dispatch struct {
	fn     func(api.Ctx)
	parent *scope // nil for a root strand (a run's, a submission's) and for initial thieves
	worker int
	sub    *Submission // service submission this strand belongs to, if any
}

// retire is the dispatch that ends a vessel goroutine.
var retire = dispatch{worker: -1}

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
	// aggregate monotonic for mid-run readers (Counters, DumpState).
	pend trace.Pending
}

// flushCounters folds the strand's batched tallies into worker w's block.
func (v *vessel) flushCounters(w int) {
	v.rt.rec.Worker(w).Flush(&v.pend)
}

// vesselGlobalList is the shared overflow list behind the owner-local
// caches; the mutex is only taken when a local list misses or overflows.
type vesselGlobalList struct {
	//nowa:lock level=3 name=vglobal.mu
	mu   sync.Mutex
	free []*vessel
}

const perWorkerVesselCap = 8

// pushBottom and popBottom are the owner-side deque operations on slot
// w, called on the concrete type so the compiler can inline the fast
// paths instead of emitting an interface call per spawn.
//
//nowa:hotpath
func (rt *Runtime) pushBottom(w int, c *cont) {
	if s := &rt.slots[w]; s.cl != nil {
		s.cl.PushBottom(c)
	} else {
		s.the.PushBottom(c)
	}
}

//nowa:hotpath
func (rt *Runtime) popBottom(w int) (*cont, bool) {
	s := &rt.slots[w]
	if s.cl != nil {
		return s.cl.PopBottom()
	}
	return s.the.PopBottom()
}

// newVessel allocates and starts a fresh vessel goroutine, counting it
// live and raising the high-water mark.
//
//nowa:coldpath runs once per vessel ever created; steady state recycles vessels through the free lists and never gets here
func (rt *Runtime) newVessel() *vessel {
	for live := rt.vLive.Add(1); ; {
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

// getVessel obtains a vessel: worker-local list (owner-only, lock-free),
// then the global list, then fresh. Never nil.
//
//nowa:hotpath
func (rt *Runtime) getVessel(w int) *vessel {
	s := &rt.slots[w]
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return v
	}
	return rt.getVesselSlow()
}

// getVesselSlow is the local-cache miss path: global mutex pool, then
// fresh creation.
//
//nowa:coldpath free-list miss only: takes the global mutex and may start a goroutine; steady state recycles through the owner-local caches
func (rt *Runtime) getVesselSlow() *vessel {
	rt.vglobal.mu.Lock()
	if n := len(rt.vglobal.free); n > 0 {
		v := rt.vglobal.free[n-1]
		rt.vglobal.free[n-1] = nil
		rt.vglobal.free = rt.vglobal.free[:n-1]
		rt.vglobal.mu.Unlock()
		return v
	}
	rt.vglobal.mu.Unlock()
	return rt.newVessel()
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
	if rt.chaosOn && rt.chaosRoll(w, chaos.SiteLeakVessel) {
		// Planted bug (Chaos.LeakVessel): drop the vessel instead of
		// pooling it. It stays counted live and registered in allVessels
		// — Close still stops its goroutine — but never returns to a free
		// list, so the idle reconciliation reports it leaked.
		return
	}
	s := &rt.slots[w]
	if len(s.free) < perWorkerVesselCap {
		s.free = append(s.free, v) //nowa:hotpath-ok guarded by the cap check against the pre-sized backing array (New reserves perWorkerVesselCap); never reallocates
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
		v.pk.await()
		d := v.disp
		if d.worker < 0 {
			return
		}
		v.proc.worker = d.worker
		v.proc.bind(d.sub)
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
//
// Under runtime/trace the strand is one "strand" region on this vessel
// goroutine, which it never leaves (suspensions park it in place), ended
// on the normal and the panic path alike before the token moves on.
func (v *vessel) runStrand(d dispatch) {
	var region *rtrace.Region
	if rtrace.IsEnabled() {
		region = rtrace.StartRegion(v.proc.traceCtx(), "strand")
		v.proc.traceToken()
	}
	defer func() {
		if r := recover(); r != nil {
			if region != nil {
				region.End()
			}
			v.rt.recordPanic(v.proc.sub, r)
			v.resetScopes()
			v.rt.finishStrand(v, d.parent)
		}
	}()
	d.fn(&v.proc)
	if region != nil {
		region.End()
	}
	v.resetScopes()
	v.rt.finishStrand(v, d.parent)
}

// traceCtx is the runtime/trace context the strand's region and logs
// belong to: its submission's task, else the current Run's.
func (p *Proc) traceCtx() context.Context {
	if p.sub != nil {
		return p.sub.cs.Context()
	}
	return p.rt.traceCtx
}

// traceToken logs the worker token the strand holds, at its start and
// after each resume: the token a strand runs on changes when a thief
// steals its continuation or a wakeup resumes it elsewhere.
//
//nowa:coldpath reached only with runtime/trace on (the caller tests trace.IsEnabled), where the log's formatting and event write are the point
func (p *Proc) traceToken() {
	rtrace.Log(p.traceCtx(), "token", strconv.Itoa(p.worker))
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
	if v.pend[trace.ResumedWaits]|v.pend[trace.AbortedWaits] != 0 {
		// Publish a wait's end, then rouse the thieves it may have kept
		// parked in wind-down (DESIGN.md §16.2). Flush before the load:
		// a wind-down the load misses begins after the end is visible.
		v.flushCounters(w)
		if rt.done.Load() || rt.cancel.Cancelled() {
			rt.wakeThieves()
		}
	}
	if rt.stallOn {
		// Strand finish is a heartbeat site: a token pinned by a long
		// user function goes stale between two of these, which is what
		// the stall ticker measures; a seized token returning lands its
		// re-entry CAS here.
		rt.stallFinishCheck(w)
	}
	if rt.chaosOn {
		rt.chaosPrePopBottom(w)
	}
	if c, ok := rt.popOwn(w, parent); ok {
		v.pend[trace.LocalResumes]++
		v.flushCounters(w)
		rt.freeVessel(v, w)
		c.v.resumeTok = token{worker: w}
		c.v.pk.deliver()
		return
	}
	v.pend[trace.ImplicitSyncs]++
	v.flushCounters(w)
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
