// Package childsteal is the child-stealing comparator of §II-B and §V-E:
// one runtime that plays TBB, GCC's libgomp and Clang's libomp with tied
// or untied tasks, each a row of one variant table. At a spawn the *child
// task* is made stealable while the parent keeps running its
// continuation. The paper's characterisation, reproduced here:
//
//   - child tasks are dynamically allocated (one heap task object per
//     spawn, in contrast to continuation stealing's per-function slot);
//   - local execution order is the reverse of spawn order (LIFO pops),
//     while thieves take the oldest task (FIFO steals) — the property that
//     makes the knapsack benchmark order-sensitive (§V-A);
//   - sync is blocking: the spawning strand's stack is pinned while it
//     waits, so the worker "helps" by executing tasks — possibly unrelated
//     ones — from its own deque or by stealing.
//
// The rows differ in where tasks queue and in what a waiting Sync may run:
//
//   - tbb: per-worker Chase–Lev deques, and a waiting Sync steals. The
//     lock-free deque is generous to this baseline (TBB 2017 used locks),
//     so measured gaps to the continuation-stealing runtimes are
//     conservative.
//   - libomp-untied: per-worker locked deques, as libomp keeps them, and a
//     waiting Sync steals.
//   - libomp-tied: the same deques, but a waiting Sync runs only tasks of
//     its own deque — OpenMP's scheduling constraint on tied tasks at a
//     taskwait. Idle workers steal in both modes.
//   - libgomp: one locked queue shared by every worker, the single hot spot
//     behind §V-E's speedups at or below one. Every take is a LIFO pop of
//     it and is tallied as a steal: there is no local fast path.
//
// Idle workers run the continuation-stealing scheduler's idle protocol:
// spinBeforePark yields, then a park on a cqs.Queue; every Spawn push
// wakes one sleeper and the end of a Run wakes all. A waiting Sync never
// sleeps and never parks — nothing wakes anyone when its pending count
// reaches 0 — so it keeps helping and yields on each failed pass.
package childsteal

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"nowa/internal/api"
	"nowa/internal/chaos"
	"nowa/internal/cqs"
	"nowa/internal/deque"
	"nowa/internal/trace"
)

// variant is one comparator runtime.
type variant struct {
	name  string
	deque deque.Algorithm
	// central: one queue shared by every worker instead of one each.
	central bool
	// tied: a waiting Sync runs only its own deque's tasks.
	tied bool
}

// variants is the one table of the comparator runtimes.
var variants = []variant{
	{name: "tbb", deque: deque.CL},
	{name: "libgomp", deque: deque.Locked, central: true},
	{name: "libomp-untied", deque: deque.Locked},
	{name: "libomp-tied", deque: deque.Locked, tied: true},
}

// Variants lists the names New knows, in evaluation order.
func Variants() []string {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	return names
}

// seed seeds the victim streams, and the chaos streams of a chaos block
// whose Seed is zero.
const seed = 1

// spinBeforePark is how many consecutive failed takes an idle worker
// yields through before it parks: the continuation-stealing scheduler's
// count, for its reason — a parked worker is woken by the very push a
// spinning one would have found.
const spinBeforePark = 64

// task is one spawned child; heap-allocated per spawn by design.
type task struct {
	fn func(api.Ctx)
	sc *scope
}

// Runtime is a child-stealing fork/join runtime.
type Runtime struct {
	v      variant
	deques []deque.Deque[task] // one per worker; a central row's share one
	ctxs   []ctx
	chaos  *chaos.Chaos // nil: no fault injection
	idle   *cqs.Queue   // parked workers' wake channels
	rec    *trace.Recorder
	done   atomic.Bool
	run    atomic.Bool
	cancel api.CancelState
	panics api.PanicSink
}

// New creates the named variant with the given worker count (at least
// one). A non-nil inject arms seeded fault injection on the steal path —
// the steal-fail and steal-delay rows of its table — drawn from a stream
// per worker.
func New(name string, workers int, inject *chaos.Chaos) (*Runtime, error) {
	i := slices.IndexFunc(variants, func(v variant) bool { return v.name == name })
	if i < 0 {
		return nil, fmt.Errorf("unknown variant %q (want %s)", name, strings.Join(Variants(), ", "))
	}
	v := variants[i]
	workers = max(workers, 1)
	rt := &Runtime{
		v:      v,
		deques: make([]deque.Deque[task], workers),
		ctxs:   make([]ctx, workers),
		idle:   cqs.NewQueue(),
		rec:    trace.NewRecorder(workers),
	}
	if inject != nil {
		rt.chaos = inject.WithDefaults(seed)
	}
	for w := range rt.ctxs {
		if w == 0 || !v.central {
			rt.deques[w] = deque.New[task](v.deque, 256)
		} else {
			rt.deques[w] = rt.deques[0]
		}
		c := &rt.ctxs[w]
		c.rt, c.worker, c.wake = rt, w, make(chan struct{}, 1)
		c.rng = seed + uint64(w)*0x9e3779b97f4a7c15 + 1
		if rt.chaos != nil {
			c.chaos.Seed(rt.chaos.Seed, w)
		}
	}
	return rt, nil
}

// Name implements api.Runtime.
func (rt *Runtime) Name() string { return rt.v.name }

// Workers implements api.Runtime.
func (rt *Runtime) Workers() int { return len(rt.ctxs) }

// Counters aggregates scheduler event counters (exact when idle).
func (rt *Runtime) Counters() trace.Counters { return rt.rec.Aggregate() }

// Run implements api.Runtime. The root strand executes on worker 0; the
// remaining workers steal until the computation completes.
func (rt *Runtime) Run(root func(api.Ctx)) {
	_ = rt.runCtx(nil, root)
}

// RunCtx implements api.Runtime. On cancellation, Spawn degrades to
// inline execution; already-published tasks drain through the worker
// loops and Sync helping, so the computation remains fully strict.
func (rt *Runtime) RunCtx(ctx context.Context, root func(api.Ctx)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return rt.runCtx(ctx, root)
}

func (rt *Runtime) runCtx(ctx context.Context, root func(api.Ctx)) error {
	if !rt.run.CompareAndSwap(false, true) {
		panic("childsteal: concurrent Run on the same Runtime")
	}
	defer rt.run.Store(false)
	rt.done.Store(false)
	rt.cancel.Begin(ctx, nil)
	defer rt.cancel.End()
	var wg sync.WaitGroup
	for w := 1; w < len(rt.ctxs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.workerLoop(&rt.ctxs[w])
		}()
	}
	func() {
		defer rt.containPanic()
		root(&rt.ctxs[0])
	}()
	// Fully strict: when root returns every spawned task has joined. A
	// worker that registers after the drain's bound sees done on its
	// re-scan and takes its ticket back.
	rt.done.Store(true)
	rt.idle.Drain(wake)
	wg.Wait()

	if p := rt.panics.Take(); p != nil {
		panic(p)
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// containPanic notes a panic on the current Run's sink; deferred around
// every task execution and the root.
func (rt *Runtime) containPanic() {
	if r := recover(); r != nil {
		rt.panics.Note(r)
	}
}

func (rt *Runtime) workerLoop(c *ctx) {
	fails := 0
	for !rt.done.Load() {
		if t, ok := rt.take(c, true); ok {
			fails = 0
			rt.execute(t, c)
			continue
		}
		if fails++; fails <= spinBeforePark {
			runtime.Gosched()
			continue
		}
		fails = 0
		rt.park(c)
	}
}

// park puts an idle worker to sleep on the idle queue until a Spawn push
// or the end of the Run wakes it. The ticket is claimed before the
// re-scan and every push loads Waiting after it published, so a wakeup
// cannot be lost: either the pusher sees the ticket and resumes it, or
// the re-scan sees the push and the worker takes its ticket back.
func (rt *Runtime) park(c *ctx) {
	t, ok := rt.idle.Enqueue(c.wake)
	if !ok {
		return // a resume ran ahead of the registration: already woken
	}
	if rt.done.Load() || slices.ContainsFunc(rt.deques, func(d deque.Deque[task]) bool { return d.Size() > 0 }) {
		if !t.TryAbort() {
			<-c.wake // a resumer won the cell: consume its delivery
		}
		return
	}
	rec := rt.rec.Worker(c.worker)
	rec[trace.ThiefParks].Add(1)
	<-c.wake
	rec[trace.ThiefWakeups].Add(1)
}

// wake delivers a won idle-queue cell to its parked worker. The channel
// has room: each cell is resumed once, and its worker consumes the
// delivery before it registers again.
func wake(h any) { h.(chan struct{}) <- struct{}{} }

// take finds c's worker one task. Its own deque's bottom comes first; then,
// when steal is set, one steal attempt through the chaos window: the top
// of a random victim's deque. A central row has no own deque: its every
// take is the steal, a pop of the shared queue's bottom.
func (rt *Runtime) take(c *ctx, steal bool) (*task, bool) {
	rec := rt.rec.Worker(c.worker)
	if !rt.v.central {
		if t, ok := rt.deques[c.worker].PopBottom(); ok {
			rec[trace.LocalResumes].Add(1)
			return t, true
		}
		if !steal {
			return nil, false
		}
	}
	if rt.chaos != nil && c.chaos.PreSteal(rt.chaos) {
		rec[trace.FailedSteals].Add(1)
		return nil, false
	}
	var t *task
	var ok bool
	if rt.v.central {
		t, ok = rt.deques[0].PopBottom()
	} else {
		t, ok = rt.deques[xorshift(&c.rng)%uint64(len(rt.deques))].PopTop()
	}
	if ok {
		rec[trace.Steals].Add(1)
	} else {
		rec[trace.FailedSteals].Add(1)
	}
	return t, ok
}

// xorshift advances one xorshift64 stream.
func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

func (rt *Runtime) execute(t *task, c *ctx) {
	defer t.sc.pending.Add(-1)
	defer rt.containPanic()
	t.fn(c)
}

// ctx is one worker: its execution context plus the state only it
// touches. Unlike the continuation-stealing runtime, the spawning strand
// never migrates: its worker is fixed, which is exactly the pinned-stack
// property of child stealing.
type ctx struct {
	rt     *Runtime
	worker int
	rng    uint64        // victim stream
	chaos  chaos.Streams // chaos streams, one per site, owner-only
	wake   chan struct{} // where a resumer delivers this worker's wakeup
}

// Workers implements api.Ctx.
func (c *ctx) Workers() int { return len(c.rt.ctxs) }

// Done implements api.Ctx.
func (c *ctx) Done() <-chan struct{} { return c.rt.cancel.Done() }

// Err implements api.Ctx.
func (c *ctx) Err() error { return c.rt.cancel.Err() }

// Scope implements api.Ctx.
func (c *ctx) Scope() api.Scope { return &scope{c: c} }

// scope tracks outstanding children with an atomic reference count, the
// TBB-style task counter (an OpenMP taskgroup).
type scope struct {
	c       *ctx
	pending atomic.Int64
}

// Spawn allocates the child task, publishes it on the current worker's
// deque and wakes one parked worker; the parent continues immediately.
// Once the run is cancelled it degrades to inline execution (no task
// allocation, no publication) with the usual strand-panic containment.
func (s *scope) Spawn(fn func(api.Ctx)) {
	c, rt := s.c, s.c.rt
	if rt.cancel.Cancelled() {
		rt.rec.Worker(c.worker)[trace.InlineSpawns].Add(1)
		func() {
			defer rt.containPanic()
			fn(c)
		}()
		return
	}
	s.pending.Add(1)
	rt.rec.Worker(c.worker)[trace.Spawns].Add(1)
	rt.deques[c.worker].PushBottom(&task{fn: fn, sc: s})
	if rt.idle.Waiting() {
		if h, ok := rt.idle.ResumeOne(); ok {
			wake(h)
		}
	}
}

// Sync blocks until all children joined, helping by executing local tasks
// (reverse spawn order) and, unless tasks are tied, stealing when the
// local deque runs dry.
func (s *scope) Sync() {
	c, rt := s.c, s.c.rt
	rt.rec.Worker(c.worker)[trace.ExplicitSyncs].Add(1)
	for s.pending.Load() != 0 {
		if t, ok := rt.take(c, !rt.v.tied); ok {
			rt.execute(t, c)
		} else {
			runtime.Gosched()
		}
	}
}

var (
	_ api.Runtime = (*Runtime)(nil)
	_ api.Ctx     = (*ctx)(nil)
	_ api.Scope   = (*scope)(nil)
)
