package sched

import (
	"context"
	"fmt"
	"io"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"unsafe"

	"nowa/internal/api"
	"nowa/internal/cactus"
	"nowa/internal/chaos"
	"nowa/internal/core"
	"nowa/internal/cqs"
	"nowa/internal/deque"
	"nowa/internal/trace"
)

// Runtime is a continuation-stealing fork/join runtime instance. Create it
// with New or a variant constructor, execute computations with Run or
// RunCtx, and Close it when done to stop the vessel goroutines. A Runtime
// is reusable across Run calls but supports only one Run at a time.
//
//nowa:nopad the Runtime is a per-instance singleton; its atomic flags are control-path words (run start/stop, cancellation), not per-worker contended state; no per-operation path writes a field here (the wake and idle queues live behind pointers, the blocked-wait gauge is derived from the per-token counter blocks)
type Runtime struct {
	// Cached fast-path flags, derived from cfg once in New so the hot
	// paths test a packed bool instead of chasing config pointers.
	chaosOn  bool // cfg.Chaos != nil
	waitFree bool // cfg.Join == WaitFree
	lazyOn   bool // cfg.Spawn != SpawnEager: Spawn runs children inline until a thief posts demand
	stallOn  bool // cfg.StallThreshold > 0: heartbeats + a stall ticker started per run

	// slots holds one record per scheduling slot: base workers
	// 0..Workers-1, worker w's stall supplement Workers+w (see slot).
	slots []slot
	pool  *cactus.Pool
	rec   *trace.Recorder

	cfg Config

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

	// wakeq routes wakeups fired off any worker token to idle thieves
	// (block.go).
	wakeq core.WakeQueue[*Waiter]

	// Stall recovery (all zero unless stallOn; see stall.go). victimHi is
	// the number of victim-eligible slots, raised when a supplement arms,
	// reset to Workers each Run.
	victimHi     atomic.Int32
	supplemented atomic.Int64
	supRetired   atomic.Int64

	// traceCtx carries the current Run's runtime/trace task (a plain
	// background context when tracing was off at Run start); strands
	// outside a submission open their regions under it (Proc.traceCtx).
	traceCtx context.Context

	// panics keeps the current Run's first strand panic.
	panics api.PanicSink

	// svc is non-nil while the runtime is in service mode (StartService):
	// a long-lived internal run dispatches Submit traffic, Run/RunCtx are
	// rejected, and Close drains instead of panicking. It stays set after
	// Close so ServiceStats remains answerable.
	svc atomic.Pointer[service]
}

// slot is one scheduling slot's state. Its fields are grouped by who
// writes them, each group on a 128-byte line pair of its own (two cache
// lines, covering the adjacent-line prefetcher), so that neither a
// thief's nor the stall ticker's write bounces the owner's line.
type slot struct {
	// Owner group: only the strand holding the slot's token writes here,
	// so nothing needs a lock or atomics: a vessel frees itself into free
	// before it hands the token away, and the next holder is ordered
	// behind that handoff. Diagnostic readers (DumpState) must not read
	// free. The deque pointer is set in New, one of cl and the per
	// Config.Deque; thieves only load it. script is a test's victims,
	// drawn before rng (stealVictim).
	cl     *deque.CLDeque[cont]
	the    *deque.THEDeque[cont]
	rng    uint64
	free   []*vessel
	script []int
	chaos  chaos.Streams
	_      [56]byte

	// demand is the steal-demand flag: a thief that found the deque empty
	// sets it, the token holder reads it at each lazy spawn and answers a
	// set flag with an eager handoff. Thieves write, the owner only reads
	// until it answers, so the no-steal spawn loads a line nobody else is
	// writing.
	demand atomic.Uint32
	_      [124]byte

	// next is the slot's next wakeup, like Go's runnext: filled only by
	// the token holder (WakeNext), emptied by its passToken and stealLoop
	// or by a parking thief.
	next atomic.Pointer[Waiter]
	_    [120]byte

	// hb is the heartbeat the token holder bumps and the stall ticker
	// samples; state, a base worker's stall word, moves one edge per
	// party — ticker, returning worker, supplement (stall.go). A
	// supplement slot's own state stays healthy.
	hb atomic.Uint64
	//nowa:fsm phases=wsHealthy,wsSupplemented,wsRetiring transitions=wsHealthy>wsSupplemented,wsSupplemented>wsRetiring,wsRetiring>wsHealthy
	state atomic.Uint32
	_     [116]byte
}

// Compile-time guards: each group starts a line pair and slots abut on
// pair boundaries, or the uintptr negation overflows and the build fails.
const (
	_ uintptr = -(unsafe.Offsetof(slot{}.cl) % 128)
	_ uintptr = -(unsafe.Offsetof(slot{}.demand) % 128)
	_ uintptr = -(unsafe.Offsetof(slot{}.next) % 128)
	_ uintptr = -(unsafe.Offsetof(slot{}.hb) % 128)
	_ uintptr = -(unsafe.Sizeof(slot{}) % 128)
)

// rand steps the slot's xorshift64 victim generator.
func (s *slot) rand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// size is the slot's deque size (best effort while the run is live).
func (s *slot) size() int {
	if s.cl != nil {
		return s.cl.Size()
	}
	return s.the.Size()
}

// New creates a runtime from cfg.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := cfg.totalSlots()
	rt := &Runtime{
		chaosOn:  cfg.Chaos != nil,
		waitFree: cfg.Join == WaitFree,
		lazyOn:   cfg.Spawn != SpawnEager,
		stallOn:  cfg.StallThreshold > 0,
		slots:    make([]slot, n),
		pool:     cactus.NewPool(cfg.Stacks),
		rec:      trace.NewRecorder(n),
		cfg:      cfg,
		idle:     cqs.NewQueue(),
	}
	for w := range rt.slots {
		s := &rt.slots[w]
		if cfg.Deque == deque.CL {
			s.cl = deque.NewCL[cont](dequeCap)
		} else {
			s.the = deque.NewTHE[cont](dequeCap)
		}
		s.rng = uint64(cfg.Seed) + uint64(w)*0x9e3779b97f4a7c15 + 1
		// Pre-size the vessel cache so steady-state frees never grow the
		// slice (keeps the spawn path allocation-free).
		s.free = make([]*vessel, 0, perWorkerVesselCap)
		if cfg.Chaos != nil {
			s.chaos.Seed(cfg.Chaos.Seed, w)
		}
	}
	if rt.stallOn {
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
// in progress; a race-free approximate snapshot otherwise. The stack-get
// tallies are the pool's own (cactus.Stats), counted once, in Pool.Get.
func (rt *Runtime) Counters() trace.Counters {
	c := rt.rec.Aggregate()
	st := rt.pool.Stats()
	c.StackLocalGets, c.StackGlobalGets = st.LocalGets, st.GlobalGets
	return c
}

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
	for w := range rt.slots {
		// No token exists yet: whatever the last run's thieves left posted
		// is nobody's demand.
		rt.takeDemand(w)
	}
	rt.tokensLeft.Store(int64(rt.cfg.Workers))
	rt.finished = make(chan struct{})
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

	// A strand panic is re-raised here, on the caller's goroutine, after
	// the computation drained (every join completed, the runtime stays
	// consistent and reusable).
	if p := rt.panics.Take(); p != nil {
		panic(p)
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// recordPanic notes a strand panic on the current Run's sink, or — for a
// strand of a service submission (sub non-nil) — on that submission's:
// the panic resolves only its future, and the batch-Run re-raise never
// fires.
//
//nowa:coldpath runs only while a strand panic unwinds; allocation is irrelevant on the failure path
func (rt *Runtime) recordPanic(sub *Submission, v any) {
	if sub != nil {
		sub.panics.Note(v)
		return
	}
	rt.panics.Note(v)
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
// a wait's end was published during wind-down, a stalled worker returned
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
	for i := 0; i < len(rt.slots) && bw == nil; i++ {
		bw = rt.takeNext(i)
	}
	look := bw != nil
	if look {
		// Only this token's holder fills its own slot, and the steal
		// loop emptied it before coming here.
		rt.slots[w].next.Store(bw)
	} else if rt.done.Load() || rt.cancel.Cancelled() {
		// Winding down, thieves steal nothing: the only reason to be
		// awake is an open retirement gate. While blocked waits hold it
		// shut, sleep: deliver's push wakes one, and publishing a wait's
		// end (CommitWait, finishStrand) wakes all.
		look = rt.blockedLive() == 0
	} else {
		// The stall hook doubles as the park-time heartbeat — a parked
		// thief is idle, not stalled, and beats again at wake — and tells
		// a supplement whose worker returned since its last pass.
		look = rt.anyDequeNonEmpty() || (rt.stallOn && rt.stallStealCheck(w))
	}
	// In both phases a queued submission is work: a forced drain still
	// settles what is queued.
	look = look || rt.submissionsQueued()
	if !look && rt.wakeq.Pending() {
		// A queued external wakeup must be picked up, not slept on; the
		// decline is tallied as the near-miss it is.
		rt.rec.Worker(w)[trace.WakeupsLost].Add(1)
		look = true
	}
	if look {
		if !t.TryAbort() {
			// A resumer claimed the cell first: its delivery is in
			// flight and must be consumed before the parker is reused.
			p.v.pk.await()
			if bw != nil {
				// Meant for a thief that stays to look; this one is
				// leaving with the slot's waiter, so pass it on.
				rt.wakeThief()
			}
		}
		return
	}
	rt.rec.Worker(w)[trace.ThiefParks].Add(1)
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
	p.v.pk.await()
	if rt.stallOn {
		rt.beat(w)
	}
	rt.rec.Worker(w)[trace.ThiefWakeups].Add(1)
}

// anyDequeNonEmpty scans all worker deques (best-effort sizes).
func (rt *Runtime) anyDequeNonEmpty() bool {
	for i := range rt.slots {
		if rt.slots[i].size() > 0 {
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
		v.pk.deliver()
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
	for i := range rt.slots {
		s := &rt.slots[i]
		next := "none"
		if bw := s.next.Load(); bw != nil {
			next = fmt.Sprintf("waiter %p", bw)
		}
		if i < rt.cfg.Workers {
			fmt.Fprintf(w, "  worker %d: deque size %d, next wakeup %s\n", i, s.size(), next)
		} else {
			fmt.Fprintf(w, "  supplement slot %d (worker %d): deque size %d, next wakeup %s\n", i-rt.cfg.Workers, i, s.size(), next)
		}
	}
	if rt.stallOn {
		fmt.Fprintf(w, "  stall recovery: supplemented=%d retired=%d victimSlots=%d\n",
			rt.supplemented.Load(), rt.supRetired.Load(), rt.victimHi.Load())
		for i := 0; i < rt.cfg.Workers; i++ {
			if st := rt.slots[i].state.Load(); st != wsHealthy {
				fmt.Fprintf(w, "  worker %d stall word: %d (1=supplemented 2=retiring) heartbeat=%d\n", i, st, rt.slots[i].hb.Load())
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
	agg := rt.Counters()
	fmt.Fprintf(w, "  waits: blocked=%d resumed=%d aborted=%d live=%d pendingWakes=%v wakeupsLost=%d\n",
		agg.BlockedWaits, agg.ResumedWaits, agg.AbortedWaits,
		rt.blockedLive(), rt.wakeq.Pending(), agg.WakeupsLost)
	fmt.Fprintf(w, "  thieves parked: %v\n", rt.idle.Waiting())
	fmt.Fprintf(w, "  counters: %+v\n", agg)
	fmt.Fprintf(w, "  stacks: %+v\n", rt.pool.Stats())
}
