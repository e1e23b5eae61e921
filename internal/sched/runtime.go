package sched

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"

	"nowa/internal/api"
	"nowa/internal/cactus"
	"nowa/internal/core"
	"nowa/internal/cqs"
	"nowa/internal/deque"
	"nowa/internal/replay"
	"nowa/internal/trace"
)

// Runtime is a continuation-stealing fork/join runtime instance. Create it
// with New or a variant constructor, execute computations with Run or
// RunCtx, and Close it when done to stop the vessel goroutines. A Runtime
// is reusable across Run calls but supports only one Run at a time.
//
//nowa:nopad the Runtime is a per-instance singleton; its atomic flags are control-path words (run start/stop, cancellation), not per-worker contended state
type Runtime struct {
	cfg Config

	// Cached fast-path flags, derived from cfg once in New so the hot
	// paths test a packed bool instead of chasing config pointers.
	chaosOn    bool // cfg.Chaos != nil
	waitFree   bool // cfg.Join == WaitFree
	recordOn   bool // cfg.Record != nil: schedule decisions logged
	blockRecOn bool // recordOn && Workers > 1: KBlocked diagnostics (see note)
	lazyOn     bool // cfg.Spawn != SpawnEager: Spawn runs children inline until a thief posts demand
	stallOn    bool // cfg.StallThreshold > 0: heartbeats + a stall ticker started per run

	deques    []deque.Deque[cont]
	clDeques  []*deque.CLDeque[cont]  // non-nil iff cfg.Deque == CL: devirtualised hot path
	theDeques []*deque.THEDeque[cont] // non-nil per worker iff cfg.Deque == THE
	pool      *cactus.Pool
	rec       *trace.Recorder
	rngs      []rngState

	// demand holds one steal-demand word per scheduling slot: thieves
	// write, the slot's token holder reads (see demandWord).
	demand []demandWord

	vlocal  []vesselFreeList
	vglobal vesselGlobalList

	//nowa:lock level=2 name=allMu
	allMu      sync.Mutex
	allVessels []*vessel
	closed     bool

	// Vessel accounting: live tracks goroutines in existence, highWater
	// its maximum, scopesLeaked the scope slots past the inline ones that
	// panic unwinds left pinned non-quiescent (see resetScopes).
	vLive        atomic.Int64
	vHighWater   atomic.Int64
	scopesLeaked atomic.Int64

	// govMu serialises Stats' idle read of the owner-local vessel caches
	// against Run start; Run acquires it only for the instant of the
	// running transition. Its place in the runtime's lock hierarchy —
	// always before the pool's vglobal.mu — is declared by the
	// //nowa:lock levels on the fields; the lockorder analyzer enforces
	// the order at build time, so the annotation below is the source of
	// truth.
	//nowa:lock level=1 name=govMu
	govMu sync.Mutex

	running    atomic.Bool
	done       atomic.Bool
	tokensLeft atomic.Int64
	finished   chan struct{}

	cancel api.CancelState
	// idle is where thieves out of spins sleep (parkThief): a publication
	// of one unit of work resumes one of them (wakeThief), a condition
	// every sleeper must re-check drains it (wakeThieves).
	idle *cqs.Queue

	// External-wait state (block.go): wakeq routes wakeups fired off any
	// worker token to idle thieves, next holds each scheduling slot's
	// next wakeup, blockedLive gauges strands parked on an external wait
	// (gating token retirement), blockedHW its maximum.
	wakeq       core.WakeQueue[*Waiter]
	next        []nextSlot
	blockedLive atomic.Int64
	blockedHW   atomic.Int64

	// chaos holds each scheduling slot's chaos streams, one per site.
	chaos []replay.Streams

	// Stall recovery (all nil/zero unless stallOn; see stall.go). hb is
	// indexed by scheduling slot: base workers 0..Workers-1, worker w's
	// supplement Workers+w. victimHi is the number of victim-eligible
	// slots, raised when a supplement arms, reset to Workers each Run.
	hb           []hbSlot
	victimHi     atomic.Int32
	seized       atomic.Int64
	supplemented atomic.Int64
	supRetired   atomic.Int64

	// rep is the schedule recorder (cfg.Record). It is owner-only like
	// the RNG streams: worker w's ring is touched only by the strand
	// holding token w. KBlocked (a parker rendezvous exhausting its spin
	// budget) is the one timing-dependent event; it is suppressed at
	// Workers==1 (blockRecOn) so single-worker captures stay
	// byte-identical run to run.
	rep *replay.Recorder

	// victimScript, when a test sets it before Run, dictates slot w's
	// steal victims: its draws come from victimScript[w] while that
	// lasts, from the slot's RNG after. Owner-only like the RNG.
	victimScript [][]int

	// traceCtx carries the current Run's runtime/trace task (a plain
	// background context when tracing was off at Run start); strands
	// outside a submission open their regions under it (Proc.traceCtx).
	traceCtx context.Context

	panicMu  sync.Mutex
	panicked *api.StrandPanic

	// svc is non-nil while the runtime is in service mode (StartService):
	// a long-lived internal run dispatches Submit traffic, Run/RunCtx are
	// rejected, and Close drains instead of panicking. It stays set after
	// Close so ServiceStats remains answerable.
	svc atomic.Pointer[service]
}

// rngState is a per-worker xorshift64 generator for victim selection,
// padded to 128 bytes against false sharing (two cache lines, covering
// the adjacent-line prefetcher).
type rngState struct {
	s uint64
	_ [120]byte
}

func (r *rngState) next() uint64 {
	x := r.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s = x
	return x
}

// New creates a runtime from cfg.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// slots counts the scheduling slots every per-slot array is sized
	// for: base workers plus (when stall recovery is armed) the
	// supplemental slots. See stall.go.
	slots := cfg.totalSlots()
	rt := &Runtime{
		cfg:        cfg,
		chaosOn:    cfg.Chaos != nil,
		waitFree:   cfg.Join == WaitFree,
		recordOn:   cfg.Record != nil,
		blockRecOn: cfg.Record != nil && cfg.Workers > 1,
		lazyOn:     cfg.Spawn != SpawnEager,
		stallOn:    cfg.StallThreshold > 0,
		rep:        cfg.Record,
		deques:     make([]deque.Deque[cont], slots),
		pool:       cactus.NewPool(cfg.Stacks),
		rec:        trace.NewRecorder(slots),
		rngs:       make([]rngState, slots),
		demand:     make([]demandWord, slots),
		next:       make([]nextSlot, slots),
		vlocal:     make([]vesselFreeList, slots),
		idle:       cqs.NewQueue(),
	}
	if cfg.Deque == deque.THE {
		rt.theDeques = make([]*deque.THEDeque[cont], slots)
	}
	if cfg.Deque == deque.CL {
		rt.clDeques = make([]*deque.CLDeque[cont], slots)
	}
	for w := 0; w < slots; w++ {
		d := deque.New[cont](cfg.Deque, dequeCap)
		rt.deques[w] = d
		if rt.theDeques != nil {
			rt.theDeques[w] = d.(*deque.THEDeque[cont])
		}
		if rt.clDeques != nil {
			rt.clDeques[w] = d.(*deque.CLDeque[cont])
		}
		rt.rngs[w].s = uint64(cfg.Seed) + uint64(w)*0x9e3779b97f4a7c15 + 1
		// Pre-size the owner-local vessel caches so steady-state frees
		// never grow the slice (keeps the spawn path allocation-free).
		rt.vlocal[w].free = make([]*vessel, 0, perWorkerVesselCap)
	}
	if cfg.Chaos != nil {
		rt.chaos = make([]replay.Streams, slots)
		for w := range rt.chaos {
			rt.chaos[w].Seed(cfg.Chaos.Seed, w)
		}
	}
	if rt.stallOn {
		rt.hb = make([]hbSlot, slots)
		rt.victimHi.Store(int32(cfg.Workers))
	}
	return rt, nil
}

// MustNew is New for configurations known valid; it panics on error.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Name implements api.Runtime.
func (rt *Runtime) Name() string { return rt.cfg.Name }

// Workers implements api.Runtime.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Counters aggregates the scheduler event counters. Exact when no Run is
// in progress; a race-free approximate snapshot otherwise.
func (rt *Runtime) Counters() trace.Counters { return rt.rec.Aggregate() }

// StackStats returns the cactus stack pool accounting.
func (rt *Runtime) StackStats() cactus.Stats { return rt.pool.Stats() }

// Run implements api.Runtime: it executes root and all transitively
// spawned strands to completion.
func (rt *Runtime) Run(root func(api.Ctx)) {
	if rt.svc.Load() != nil {
		panic("sched: Run on a Runtime in service mode (use Submit)")
	}
	_ = rt.runInternal(nil, root)
}

// RunCtx implements api.Runtime: Run under a context. An already-cancelled
// context returns its error without executing root. A mid-flight
// cancellation drains cooperatively — every started strand completes,
// Spawn degrades to inline execution, idle thieves retire their tokens —
// and RunCtx then returns the context's error with the runtime fully
// reusable.
func (rt *Runtime) RunCtx(ctx context.Context, root func(api.Ctx)) error {
	if rt.svc.Load() != nil {
		panic("sched: RunCtx on a Runtime in service mode (use SubmitCtx)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return rt.runInternal(ctx, root)
}

func (rt *Runtime) runInternal(ctx context.Context, root func(api.Ctx)) error {
	rt.allMu.Lock()
	closed := rt.closed
	rt.allMu.Unlock()
	if closed {
		panic("sched: Run on closed Runtime")
	}
	// The running transition is taken under govMu so a Stats call that
	// observed the runtime idle holds off Run start until it has finished
	// with the owner-local vessel caches.
	rt.govMu.Lock()
	started := rt.running.CompareAndSwap(false, true)
	rt.govMu.Unlock()
	if !started {
		panic("sched: concurrent Run on the same Runtime")
	}
	defer rt.running.Store(false)

	rt.done.Store(false)
	for w := range rt.demand {
		// No token exists yet: whatever the last run's thieves left posted
		// is nobody's demand.
		rt.takeDemand(w)
	}
	rt.tokensLeft.Store(int64(rt.cfg.Workers))
	rt.finished = make(chan struct{})
	if rt.recordOn {
		// No token holder exists yet, so writing worker 0's ring here is
		// ordered before everything the root strand records (the parker
		// delivery below publishes it).
		rt.rep.Record(0, replay.KRunStart, 0, 0)
	}
	rt.cancel.Begin(ctx, rt.wakeThieves)
	defer rt.cancel.End()
	rt.traceCtx = context.Background()
	if ctx != nil {
		rt.traceCtx = ctx
	}
	if rtrace.IsEnabled() {
		var task *rtrace.Task
		rt.traceCtx, task = rtrace.NewTask(rt.traceCtx, "run")
		defer task.End()
	}

	if rt.stallOn {
		// The victim high-water resets before any token exists (every
		// stall word is back to healthy: the last run retired all its
		// supplements); the stall ticker lives for exactly this run (its
		// stop returns only once the ticker goroutine has exited, so a late
		// seizure can never race the post-run idle reconciliation).
		rt.victimHi.Store(int32(rt.cfg.Workers))
		defer rt.startStallTicker()()
	}

	// Token 0 carries the root strand; each stack the root's frame chain
	// pins is accounted against the pool like any stolen frame's stack.
	rv := rt.getVessel(0)
	if s, ok := rt.pool.Get(0); ok {
		rv.stacks = append(rv.stacks, s)
	}
	rv.disp = dispatch{fn: root, worker: 0}
	rv.pk.deliver()

	// The remaining tokens begin life as thieves.
	for w := 1; w < rt.cfg.Workers; w++ {
		v := rt.getVessel(w)
		v.disp = dispatch{worker: w}
		v.pk.deliver()
	}
	<-rt.finished
	if rt.recordOn {
		// Every token has retired, so worker 0's ring has no other writer.
		rt.rep.Record(0, replay.KRunEnd, 0, 0)
	}

	// A strand panic is re-raised here, on the caller's goroutine, after
	// the computation drained (every join completed, the runtime stays
	// consistent and reusable).
	rt.panicMu.Lock()
	p := rt.panicked
	rt.panicked = nil
	rt.panicMu.Unlock()
	if p != nil {
		panic(p)
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// recordPanic keeps the first strand panic of the current Run; later
// panics are tallied (and their first few values kept) on the survivor
// via StrandPanic.Suppress, so a multi-strand failure is not silently
// reported as a single one. A strand belonging to a service submission
// (sub non-nil) records against that submission instead: the panic
// resolves only its future, and the batch-Run re-raise never fires.
//
//nowa:coldpath runs only while a strand panic unwinds; allocation is irrelevant on the failure path
func (rt *Runtime) recordPanic(sub *Submission, v any) {
	if sub != nil {
		sub.notePanic(v, debug.Stack())
		if rt.recordOn {
			rt.rep.RecordExternal(replay.KPanic, 0, sub.id)
		}
		return
	}
	rt.panicMu.Lock()
	if rt.panicked == nil {
		rt.panicked = &api.StrandPanic{Value: v, Stack: debug.Stack()}
	} else {
		rt.panicked.Suppress(v)
	}
	rt.panicMu.Unlock()
	if rt.recordOn {
		rt.rep.RecordExternal(replay.KPanic, 0, 0)
	}
}

// retireToken surrenders one worker token at shutdown; the last retirement
// completes the Run.
//
//nowa:coldpath runs once per worker token per Run, at drain time; the close is the Run-completion broadcast
func (rt *Runtime) retireToken() {
	if rt.tokensLeft.Add(-1) == 0 {
		close(rt.finished)
	}
}

// wakeThief rouses one parked thief after the publication of one unit of
// work: an eager spawn's push, a continuation pushed back, a queued
// wakeup. Two loads when nobody sleeps, and no lock ever — the publisher
// loads Waiting after it published, the thief re-scans after it claimed
// its ticket, so one of the two sees the other.
//
//nowa:hotpath
func (rt *Runtime) wakeThief() {
	if rt.idle.Waiting() {
		rt.resumeThief()
	}
}

// resumeThief spends dequeue tickets until one reaches a thief: a parked
// one is delivered to on its vessel's parker (a thief holding a token has
// no other deliverer), a deposit is consumed by the thief about to
// register. A ticket whose thief aborted found work on its re-scan and is
// looking again; the next sleeper, if any, is woken in its place.
//
//nowa:coldpath a thief is asleep, so this publication ends an idle period; Resume may link a fresh queue segment
func (rt *Runtime) resumeThief() {
	if h, ok := rt.idle.ResumeOne(); ok {
		h.(*vessel).pk.deliver()
	}
}

// wakeThieves rouses every parked thief, for conditions each must
// re-check for itself: the root strand finished, the run was cancelled,
// the blocked gauge dropped during wind-down, a stalled worker returned
// (its supplement may retire).
//
//nowa:coldpath run end, cancellation, wind-down and supplement retirement only
func (rt *Runtime) wakeThieves() {
	rt.idle.Drain(func(h any) { h.(*vessel).pk.deliver() })
}

// parkThief puts a thief that ran out of spins to sleep on the idle queue
// until a publication resumes it or the queue is drained. The ticket is
// claimed before the re-scan and every publisher loads Waiting after it
// published, so a wakeup cannot be lost: either the publisher sees the
// ticket and resumes it, or the re-scan sees what was published and the
// thief takes its ticket back. A wakeup in another token's next-wakeup
// slot has outlasted this thief's whole spin budget: the re-scan moves it
// to the thief's own slot, which the steal loop's next pass resumes.
//
//nowa:coldpath a thief out of spins; the idle period's cost is the goroutine park, not this
func (rt *Runtime) parkThief(p *Proc) {
	w := p.worker
	t, ok := rt.idle.Enqueue(p.v)
	if !ok {
		// A resume ran ahead of the registration: already woken.
		return
	}
	var bw *Waiter
	for i := 0; i < len(rt.next) && bw == nil; i++ {
		bw = rt.takeNext(i)
	}
	look := bw != nil
	if look {
		// Only this token's holder fills its own slot, and the steal
		// loop emptied it before coming here.
		rt.next[w].w.Store(bw)
	} else if rt.done.Load() || rt.cancel.Cancelled() {
		// Winding down, thieves steal nothing: the only reason to be
		// awake is an open retirement gate. While blocked waits hold it
		// shut, sleeping is exactly right — under a plain Run a wait on a
		// never-resolved future is unbounded — and the events that can
		// end it all come here: deliver's push wakes one, CommitWait's
		// gauge drop wakes all.
		look = rt.blockedLive.Load() == 0
	} else {
		// The stall hook doubles as the park-time heartbeat — a parked
		// thief is idle, not stalled, and beats again at wake — and tells
		// a supplement whose worker returned since its last pass.
		look = rt.anyDequeNonEmpty() || (rt.stallOn && rt.stallStealCheck(w))
	}
	// In both phases a queued submission is work: a forced drain still
	// settles what is queued.
	look = look || rt.submissionsQueued()
	if !look && rt.wakeq.Pending() > 0 {
		// A queued external wakeup must be picked up, not slept on; the
		// decline is tallied as the near-miss it is.
		rt.rec.Worker(w)[trace.WakeupsLost].Add(1)
		look = true
	}
	if look {
		if !t.TryAbort() {
			// A resumer claimed the cell first: its delivery is in
			// flight and must be consumed before the parker is reused.
			p.v.pk.await(0)
			if bw != nil {
				// Meant for a thief that stays to look; this one is
				// leaving with the slot's waiter, so pass it on.
				rt.wakeThief()
			}
		}
		return
	}
	rt.rec.Worker(w)[trace.ThiefParks].Add(1)
	if rt.recordOn {
		// Owner-only: the parking strand still holds token w.
		rt.rep.Record(w, replay.KPark, 0, 0)
	}
	if rt.lazyOn {
		// Ask every victim for its next spawn before sleeping: a lazy
		// spawn publishes nothing and wakes nobody, so the demand is what
		// turns some owner's next spawn into the eager one whose
		// publish-then-wake ends this park. Posted after the ticket: an
		// owner that sees the demand then sees the ticket too.
		for v, n := 0, rt.victimSlots(); v < n; v++ {
			if v != w {
				rt.postDemand(w, v)
			}
		}
	}
	p.v.pk.await(0)
	if rt.stallOn {
		rt.beat(w)
	}
	rt.rec.Worker(w)[trace.ThiefWakeups].Add(1)
	if rt.recordOn {
		rt.rep.Record(w, replay.KWake, 0, 0)
	}
}

// anyDequeNonEmpty scans all worker deques (best-effort sizes).
func (rt *Runtime) anyDequeNonEmpty() bool {
	for _, d := range rt.deques {
		if d.Size() > 0 {
			return true
		}
	}
	return false
}

// Close stops all pooled vessel goroutines. In service mode it first
// drains: admission stops, queued and in-flight submissions run to
// completion up to ServiceConfig.DrainTimeout, then the remainder is
// force-cancelled through the run context — only after the service run
// has fully wound down are the vessels stopped. Outside service mode
// the runtime must be idle: a Close during a live Run panics (it would
// corrupt vessel state). Run must not be called after Close.
func (rt *Runtime) Close() {
	if svc := rt.svc.Load(); svc != nil {
		rt.drainService(svc)
	}
	if rt.running.Load() {
		panic("sched: Close during Run")
	}
	// The free lists are left intact, so Stats can still reconcile leaks
	// after Close.
	rt.allMu.Lock()
	defer rt.allMu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	for _, v := range rt.allVessels {
		v.disp = retire
		v.pk.deliver() //nowa:lock-ok shutdown broadcast: every vessel is parked awaiting a dispatch and each parker's wake channel holds a one-slot buffer, so the send cannot block the closer
	}
}

var _ api.Runtime = (*Runtime)(nil)

// DebugTokensLeft exposes the live token count for diagnostics.
func (rt *Runtime) DebugTokensLeft() int64 { return rt.tokensLeft.Load() }

// DumpState writes a human-readable diagnostic snapshot: token count,
// per-slot deque sizes and next wakeups, vessel accounting, parked
// thieves and the aggregated trace counters. Safe to call mid-run
// (values are best-effort). The owner-local vessel caches are owner-only
// and deliberately not read here — only the mutex-guarded global pool
// and the created total are reported.
func (rt *Runtime) DumpState(w io.Writer) {
	fmt.Fprintf(w, "sched runtime %q: workers=%d tokensLeft=%d running=%v cancelled=%v\n",
		rt.cfg.Name, rt.cfg.Workers, rt.DebugTokensLeft(), rt.running.Load(), rt.cancel.Cancelled())
	for i, d := range rt.deques {
		next := "none"
		if bw := rt.next[i].w.Load(); bw != nil {
			next = fmt.Sprintf("waiter %p", bw)
		}
		if i < rt.cfg.Workers {
			fmt.Fprintf(w, "  worker %d: deque size %d, next wakeup %s\n", i, d.Size(), next)
		} else {
			fmt.Fprintf(w, "  supplement slot %d (worker %d): deque size %d, next wakeup %s\n", i-rt.cfg.Workers, i, d.Size(), next)
		}
	}
	if rt.stallOn {
		fmt.Fprintf(w, "  stall recovery: seized=%d supplemented=%d retired=%d victimSlots=%d\n",
			rt.seized.Load(), rt.supplemented.Load(), rt.supRetired.Load(), rt.victimHi.Load())
		for i := 0; i < rt.cfg.Workers; i++ {
			if st := rt.hb[i].state.Load(); st != wsHealthy {
				fmt.Fprintf(w, "  worker %d stall word: %d (1=supplemented 2=retiring) heartbeat=%d\n", i, st, rt.hb[i].n.Load())
			}
		}
	}
	rt.allMu.Lock()
	total := len(rt.allVessels)
	rt.allMu.Unlock()
	rt.vglobal.mu.Lock()
	pooled := len(rt.vglobal.free)
	rt.vglobal.mu.Unlock()
	fmt.Fprintf(w, "  vessels: %d registered, %d pooled globally (owner-local caches not shown)\n", total, pooled)
	fmt.Fprintf(w, "  accounting: live=%d highWater=%d scopesLeaked=%d\n",
		rt.vLive.Load(), rt.vHighWater.Load(), rt.scopesLeaked.Load())
	agg := rt.rec.Aggregate()
	fmt.Fprintf(w, "  waits: blocked=%d resumed=%d aborted=%d live=%d highWater=%d pendingWakes=%d wakeupsLost=%d\n",
		agg.BlockedWaits, agg.ResumedWaits, agg.AbortedWaits,
		rt.blockedLive.Load(), rt.blockedHW.Load(), rt.wakeq.Pending(), agg.WakeupsLost)
	fmt.Fprintf(w, "  thieves parked: %v\n", rt.idle.Waiting())
	fmt.Fprintf(w, "  counters: %+v\n", agg)
	fmt.Fprintf(w, "  stacks: %+v\n", rt.pool.Stats())
	if rt.recordOn {
		// The newest schedule events per worker: the dump shows how each
		// worker got where it is, not just where it is.
		const lastN = 8
		for i := 0; i < rt.cfg.Workers; i++ {
			fmt.Fprintf(w, "  schedule worker %d: %s\n", i, replay.FormatEvents(rt.rep.LastEvents(i, lastN)))
		}
		if ext := rt.rep.LastEvents(rt.cfg.Workers, lastN); len(ext) > 0 {
			fmt.Fprintf(w, "  schedule external: %s\n", replay.FormatEvents(ext))
		}
	}
}
