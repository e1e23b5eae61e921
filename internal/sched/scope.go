package sched

import (
	rtrace "runtime/trace"

	"nowa/internal/api"
	"nowa/internal/chaos"
	"nowa/internal/core"
	"nowa/internal/trace"
)

// Proc is the execution context of a strand (api.Ctx). It is bound to the
// vessel, not the worker: across Spawn and Sync the same Proc pointer
// stays valid while its worker field tracks the token the strand holds.
type Proc struct {
	rt     *Runtime
	v      *vessel
	worker int

	// sub brands the strand with the service submission it belongs to
	// (nil in batch runs and on the service root). Children inherit it
	// through dispatch, so panic routing and service accounting follow
	// the whole subtree of a submission across steals.
	sub *Submission
	// cancel is the one cancellation view the strand answers to: its
	// submission's, else its run's. Set with sub at dispatch (bind).
	cancel *api.CancelState
}

// bind brands the Proc with the submission its next strand belongs to
// (nil for a run's) and points its cancellation view there.
func (p *Proc) bind(sub *Submission) {
	p.sub, p.cancel = sub, &p.rt.cancel
	if sub != nil {
		p.cancel = &sub.cs
	}
}

// Workers implements api.Ctx.
func (p *Proc) Workers() int { return p.rt.cfg.Workers }

// Done implements api.Ctx: the Done channel of the context the strand
// answers to — its submission's, else its RunCtx's (nil under a plain
// Run).
func (p *Proc) Done() <-chan struct{} { return p.cancel.Done() }

// Err implements api.Ctx: that context's error. A submission's chains to
// the service context, so a drain force-cancel is visible here too.
func (p *Proc) Err() error { return p.cancel.Err() }

// Scope implements api.Ctx. It is allocation-free in the steady state:
// the paper's "stack object for every called spawning function" lives in
// a LIFO stack the vessel owns — scopes on one strand nest like the
// frames that own them. The stack is a doubly linked list of slots whose
// first scopeInline are embedded in the vessel and whose deeper ones sit
// in chunks the vessel links in the first time a strand nests that deep
// and then keeps. The vessel's top is the next free slot: Scope takes it
// and steps up, release steps down, so every level costs the same
// pointer moves.
//
// A slot is reclaimed when the scope completes a Sync while being the
// innermost live scope of its strand (see release), or at strand end.
// Consequently a scope handle may host another spawn round after Sync —
// the documented reuse — only as long as no new Scope was opened on the
// same strand in between; all fully-strict fork/join code has this
// shape, since a function syncs the scopes it opened in LIFO order
// before returning.
// Scope relies on the armed-at-rest invariant: every slot not currently
// hosting a spawn round holds an armed join (α == 0, counter == I_max),
// so opening a scope is two plain stores — no atomic operation at all.
// The invariant is established where slots are created (linkScopes) and
// maintained by every path that retires one (Sync re-arms before release
// when the round left the counter dirty; resetScopes re-arms reclaimed
// slots on the panic path).
//
//nowa:hotpath
func (p *Proc) Scope() api.Scope {
	v := p.v
	s := v.top
	if s.up == nil {
		v.growScopes(s)
	}
	v.top = s.up
	s.done = false
	return s
}

// scopeInline is the number of scope slots embedded in each vessel. It
// covers the nesting depth of typical divide-and-conquer serial spines
// between spawns; scopeChunkLen is how many slots each further chunk
// adds, sized so one chunk takes a lazily inlined recursion some forty
// levels down.
const (
	scopeInline   = 8
	scopeChunkLen = 32
)

// growScopes links one chunk of armed slots above s, the last slot of the
// vessel's scope stack, which Scope is about to hand out: the top always
// has a slot above it to step to.
//
//nowa:coldpath runs once per scopeChunkLen nesting levels per vessel lifetime; the chunk stays with the vessel
func (v *vessel) growScopes(s *scope) {
	v.linkScopes(s, new([scopeChunkLen]scope)[:], true)
}

// linkScopes binds freshly created slots to the vessel, chains them in
// order above below (nil for the bottom of the stack) and establishes the
// armed-at-rest invariant Scope relies on.
func (v *vessel) linkScopes(below *scope, slots []scope, chunked bool) {
	for i := range slots {
		s := &slots[i]
		s.p = &v.proc
		s.wfMode = v.rt.waitFree
		s.chunked = chunked
		s.rearm()
		s.down = below
		if below != nil {
			below.up = s
		}
		below = s
	}
}

// scope is the per-spawning-function state: the paper's "stack object for
// every called spawning function" holding α and the sync-condition counter
// (wait-free mode) or the mutex-protected count (Fibril mode). Both join
// protocols have inline storage here, so opening a scope allocates
// nothing in either mode; wfMode selects which one is live, letting the
// hot paths call the concrete protocol directly instead of through an
// interface.
//
// The join fields are //nowa:join-state: only internal/core and
// internal/sched may operate on them directly; everyone else goes
// through the protocol methods.
//
//nowa:join-state
type scope struct {
	p *Proc
	// up and down link the slot to its neighbours on the vessel's scope
	// stack (down is nil at the bottom). Owner-only, like the stack.
	up, down *scope
	wfMode   bool
	chunked  bool // lives in a chunk, past the vessel's inline slots
	done     bool // completed a Sync; slot reclaimable once it is the stack top
	pinned   bool // left non-quiescent by a panic unwind and tallied (resetScopes)
	wf       core.WaitFreeJoin
	lj       core.LockedJoin
	// charged counts the pool stacks on the owning vessel's list that
	// steals of this scope's continuations put there (see stealLoop). It
	// shares the list's access rule: the owning strand while it runs, the
	// thief that holds its stolen continuation while it is parked.
	charged int
}

// rearm readies the scope for a fresh spawn/sync round: the inline join
// armed, no stack charged (endRound returned them; at strand end
// finishStrand returns the vessel's whole list).
func (s *scope) rearm() {
	s.charged = 0
	if s.wfMode {
		s.wf.Rearm()
	} else {
		s.lj.Rearm()
	}
}

// syncBegin is Join.SyncBegin devirtualised.
func (s *scope) syncBegin() bool {
	if s.wfMode {
		return s.wf.SyncBegin()
	}
	return s.lj.SyncBegin()
}

// onChildJoin is Join.OnChildJoin devirtualised.
func (s *scope) onChildJoin() bool {
	if s.wfMode {
		return s.wf.OnChildJoin()
	}
	return s.lj.OnChildJoin()
}

// returnStacks hands back to worker w's pool buffer all but keep of the
// stacks charged to this scope. A charged stack stands for the child that
// ran beside the steal — the displaced party of Listing 2 line 13 — so
// keep is the number of stolen children still running: the scope holds
// stacks for its live children, not for its lifetime steals.
func (s *scope) returnStacks(w, keep int) {
	v := s.p.v
	for ; s.charged > keep; s.charged-- {
		n := len(v.stacks) - 1
		v.rt.pool.Put(w, v.stacks[n])
		v.stacks[n] = nil
		v.stacks = v.stacks[:n]
	}
}

// endRound completes a sync round that engaged the join: every child
// has joined, so the round's stacks go back, the join is re-armed and
// the slot released.
func (s *scope) endRound() {
	s.returnStacks(s.p.worker, 0)
	s.rearm()
	s.release()
}

// outstanding asks the live protocol for the stolen continuations of this
// round whose child has not joined. Main path only.
func (s *scope) outstanding() int64 {
	if s.wfMode {
		return s.wf.Outstanding()
	}
	return s.lj.Outstanding()
}

// quiescent reports whether no strand will touch this scope's join again;
// valid only once the owning strand has ended (no concurrent steals).
func (s *scope) quiescent() bool {
	if s.wfMode {
		return s.wf.Quiescent()
	}
	return s.lj.Quiescent()
}

// release marks the scope's sync round complete and steps the vessel's
// top down over every reclaimable slot beneath it. The cascade handles the
// off-contract case of scopes synced out of creation order: an inner
// scope marked done stays pinned until the scopes above it release.
//
//nowa:hotpath
func (s *scope) release() {
	s.done = true
	v := s.p.v
	for t := v.top.down; t != nil && t.done; t = t.down {
		v.top = t
	}
}

// Spawn implements lines 1–3 of Figure 5: push the continuation, then call
// the spawned function — on this worker. Under lazy vessel promotion
// (the default, see SpawnMode) nothing is published while no thief is
// asking and the child runs inline on the parent's vessel; under
// promotion — steal demand posted on this token, a suspension on the
// vessel, or SpawnEager mode — the spawn takes the full vessel handoff,
// and when Spawn returns the strand may hold a different worker token (a
// thief resumed the continuation) exactly as in the paper's
// strand-to-worker mappings (Figure 4). The switch below decides inline or
// eager; once it says eager, the handoff always happens.
//
// The steady-state fast path performs no heap allocation, no channel
// operation, and — lazily — no goroutine switch, deque operation or
// atomic write: one load of the token's steal-demand word. Zero — no
// thief has found this token's deque empty since its strand started or
// last answered — and the child runs inline: nothing is published, so
// there is nothing to retire afterwards. Non-zero and the owner answers:
// it clears the word and pays the eager handoff for this very child,
// which publishes the continuation the thief asked for (and wakes it if
// it parked), with an eager burst armed so the vessel's next spawns
// publish real continuations while thieves are evidently hungry. The
// word is a hint, not a handshake (DESIGN.md §14): a demand the owner's
// clear overwrites, or one posted twice, costs one spurious or one late
// eager spawn and nothing else.
//
// Once the context the strand answers to is cancelled, Spawn degrades to
// the serial elision: the child executes inline on the caller's strand,
// nothing is published and the join protocol is not engaged, so the
// cancelled computation winds down with full strictness but no new
// parallelism.
//
// Deviation note: a lazily spawned child completes before Spawn returns,
// so code in which a child blocks on a signal that only the parent's
// *continuation* can provide (a channel send after Spawn, say) deadlocks
// under lazy spawning even though it terminates under SpawnEager. Such
// code is outside the fully-strict fork/join model the runtime
// reproduces — the paper's continuation-stealing semantics never
// guarantee the continuation runs concurrently with the child either
// (with one worker it cannot) — but SpawnEager restores the old
// behaviour where the distinction matters.
//
//nowa:hotpath
func (s *scope) Spawn(fn func(api.Ctx)) {
	p := s.p
	rt := p.rt
	v := p.v
	switch {
	case p.cancel.Cancelled():
		rt.runInline(p, fn, trace.InlineSpawns)
		return
	case !rt.lazyOn:
	case v.eagerBurst > 0:
		// Promotion armed an eager burst on this vessel: pay the handoff
		// so thieves get real continuations while demand (or blocking) is
		// evidently present.
		v.eagerBurst--
	case rt.chaosOn && rt.chaosRoll(p.worker, chaos.SiteStealInterest), rt.takeDemand(p.worker):
		// Steal demand on the token, injected by chaos (exactly a thief's
		// post, minus the thief) or posted by a thief: promote.
		v.eagerBurst = eagerBurstLen
		v.pend[trace.PromotedSpawns]++
	default:
		v.pend[trace.Spawns]++
		rt.runInline(p, fn, trace.InlineRuns)
		return
	}
	s.spawnEager(fn)
}

// spawnEager pays the full vessel handoff for one spawn: publish the
// parent's vessel as the continuation, hand the worker token to a fresh
// vessel running the child, park until the continuation is resumed — by
// the child's return (popBottom hit) or by a thief. This is the
// pre-promotion Spawn, the semantics every other spawn path must remain
// observationally equivalent to.
//
//nowa:hotpath
func (s *scope) spawnEager(fn func(api.Ctx)) {
	p := s.p
	rt := p.rt
	w := p.worker
	v := p.v

	// Batched: folded into the worker blocks at strand end (see
	// vessel.pend), keeping the per-spawn cost to plain increments.
	v.pend[trace.Spawns]++

	// Publish the continuation: this vessel, parked below, resumable by a
	// thief (popTop) or by the child's return (popBottom hit).
	v.cont.scope = s
	rt.pushBottom(w, &v.cont)
	rt.wakeThief()

	// The child executes next on this worker: hand over the token.
	cv := rt.getVessel(w)
	cv.disp = dispatch{fn: fn, parent: s, worker: w, sub: p.sub}
	cv.pk.deliver()

	// Park until the continuation is resumed.
	v.pk.await()
	p.worker = v.resumeTok.worker
	if rtrace.IsEnabled() {
		p.traceToken()
	}
}

// runInline executes a spawned function on the caller's strand instead
// of publishing it, tallied under why: trace.InlineRuns for a lazy spawn
// no thief asked for, trace.InlineSpawns for the cancelled-run
// degradation of Spawn. Semantically this is the serial elision — fully
// strict, no parallelism from this spawn — so it is always sound. The
// child's panic is recorded and contained exactly like a strand panic
// (runStrand), so an inline child cannot unwind the parent's frame past
// its un-synced scopes: inline execution stays observationally
// equivalent to the eager handoff.
//
//nowa:hotpath
func (rt *Runtime) runInline(p *Proc, fn func(api.Ctx), why trace.ID) {
	p.v.pend[why]++
	defer func() { //nowa:hotpath-ok the defer is open-coded and its closure does not escape (no allocation); the panic fence is the point
		if r := recover(); r != nil {
			rt.recordPanic(p.sub, r)
		}
	}()
	fn(p)
}

// Sync implements the explicit sync point: restore the sync-condition
// counter (wait-free) or test the count (locked); suspend if children are
// outstanding. The worker itself must not idle with the suspended frame —
// it "goes over to steal work" (Figure 5) — so the token goes to a thief
// vessel before the strand parks, and the last joiner hands its token to
// the suspended parent. The thief vessel is drawn only once SyncBegin
// fails: the locked-join rows reach SyncBegin on every round, stolen or
// not.
//
//nowa:hotpath
func (s *scope) Sync() {
	p := s.p
	rt := p.rt
	v := p.v
	w := p.worker
	if rt.chaosOn {
		rt.chaosPreSync(w)
	}
	v.pend[trace.ExplicitSyncs]++
	if s.wfMode && s.wf.Forked() == 0 {
		// No continuation of this round was stolen, so no strand ever
		// touched the counter (OnChildJoin runs only after a steal): the
		// sync condition holds and the join is still armed. α is a plain
		// read — with zero steals there is no writer to race with, and
		// with any steal the thief's α increment is ordered before the
		// resume that let this strand reach Sync.
		s.release()
		return
	}
	if s.syncBegin() {
		// The sync condition already holds: nobody suspends.
		s.endRound()
		return
	}
	tv := rt.getVessel(w)
	v.pend[trace.Suspensions]++
	if rt.lazyOn {
		// A suspension marks this vessel's workload as blocking-prone:
		// arm an eager burst so its upcoming children get vessels of
		// their own instead of serialising behind blocked inline runs.
		v.eagerBurst = eagerBurstLen
	}
	tv.disp = dispatch{worker: w}
	tv.pk.deliver()
	v.pk.await()
	p.worker = v.resumeTok.worker
	if rtrace.IsEnabled() {
		p.traceToken()
	}
	s.endRound()
}

var (
	_ api.Ctx   = (*Proc)(nil)
	_ api.Scope = (*scope)(nil)
)
