// Package omp provides the OpenMP-task comparator runtimes of §V-E,
// re-created from their documented scheduling behaviour:
//
//   - LibGOMP (GCC's runtime): a single central task queue protected by
//     one mutex. Every task creation and every scheduling decision
//     contends on that hotspot, which is why the paper measures speedups
//     at or below one for fine-grained task parallelism (Figure 10).
//   - LibOMP (Clang's runtime): per-worker task deques with child
//     stealing — "potentially due to its internal work-stealing
//     scheduling" (§V-E) — with Tied and Untied task modes. A thread
//     waiting at a taskwait may always execute tasks from its own deque;
//     only with untied tasks does it also steal, mirroring OpenMP's task
//     scheduling constraints on tied tasks.
//
// Both are child-stealing designs: the omp task pragma makes the child
// stealable and the parent continues; omp taskwait maps to Sync.
package omp

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nowa/internal/api"
	"nowa/internal/deque"
	"nowa/internal/trace"
)

// Mode selects the OpenMP task mode of the LibOMP-like runtime.
type Mode int

const (
	// Untied tasks may be scheduled on any thread at a scheduling point.
	Untied Mode = iota
	// Tied tasks restrict a waiting thread to tasks it created itself.
	Tied
)

// String returns the clause name.
func (m Mode) String() string {
	if m == Tied {
		return "tied"
	}
	return "untied"
}

type task struct {
	fn func(api.Ctx)
	sc *scope
}

// scope is one taskgroup: a counter of outstanding children.
type scope struct {
	c       *ctx
	pending atomic.Int64
}

type ctx struct {
	rt     runtimeIface
	worker int
}

func (c *ctx) Workers() int          { return c.rt.workers() }
func (c *ctx) Scope() api.Scope      { return &scope{c: c} }
func (c *ctx) Done() <-chan struct{} { return c.rt.cancelState().Done() }
func (c *ctx) Err() error            { return c.rt.cancelState().Err() }

func (s *scope) Spawn(fn func(api.Ctx)) {
	rt := s.c.rt
	if rt.cancelState().Cancelled() {
		// Cancelled run: degrade to inline execution with the usual
		// strand-panic containment; no task is allocated or queued.
		rt.recorder().Worker(s.c.worker)[trace.InlineSpawns].Add(1)
		func() {
			defer rt.panicBox().contain()
			fn(s.c)
		}()
		return
	}
	s.pending.Add(1)
	rt.spawn(&task{fn: fn, sc: s}, s.c.worker)
}

func (s *scope) Sync() { s.c.rt.taskwait(s) }

// runtimeIface is the shared strand-coordination surface of the two
// OpenMP-like runtimes.
type runtimeIface interface {
	workers() int
	spawn(t *task, worker int)
	taskwait(s *scope)
	panicBox() *panicBox
	cancelState() *api.CancelState
	recorder() *trace.Recorder
}

// panicBox collects the first strand panic of a Run for re-raising;
// later panics are tallied on it via StrandPanic.Suppress.
type panicBox struct {
	mu sync.Mutex
	p  *api.StrandPanic
}

// contain records a recovered panic; defer it around strand execution.
func (b *panicBox) contain() {
	if r := recover(); r != nil {
		b.mu.Lock()
		if b.p == nil {
			b.p = &api.StrandPanic{Value: r, Stack: debug.Stack()}
		} else {
			b.p.Suppress(r)
		}
		b.mu.Unlock()
	}
}

// rethrow re-raises and clears the recorded panic, if any.
func (b *panicBox) rethrow() {
	b.mu.Lock()
	p := b.p
	b.p = nil
	b.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

func execute(rt runtimeIface, t *task, ctxs []ctx, w int) {
	defer t.sc.pending.Add(-1)
	defer rt.panicBox().contain()
	t.fn(&ctxs[w])
}

func idleBackoff(fails int) {
	switch {
	case fails < 64:
		runtime.Gosched()
	case fails < 256:
		time.Sleep(time.Microsecond)
	default:
		time.Sleep(50 * time.Microsecond)
	}
}

// ---------------------------------------------------------------------------
// LibGOMP-like: one central mutex-protected queue.

// GOMP is the libgomp-like runtime.
type GOMP struct {
	nworkers int
	mu       sync.Mutex
	queue    []*task
	ctxs     []ctx
	rec      *trace.Recorder
	done     atomic.Bool
	running  atomic.Bool
	cancel   api.CancelState
	panics   panicBox
}

// NewGOMP creates a libgomp-like runtime with the given worker count.
func NewGOMP(workers int) *GOMP {
	if workers <= 0 {
		workers = 1
	}
	rt := &GOMP{nworkers: workers, rec: trace.NewRecorder(workers)}
	rt.ctxs = make([]ctx, workers)
	for w := range rt.ctxs {
		rt.ctxs[w] = ctx{rt: rt, worker: w}
	}
	return rt
}

// Name implements api.Runtime.
func (rt *GOMP) Name() string { return "libgomp" }

// Workers implements api.Runtime.
func (rt *GOMP) Workers() int { return rt.nworkers }

// Counters aggregates event counters.
func (rt *GOMP) Counters() trace.Counters { return rt.rec.Aggregate() }

func (rt *GOMP) workers() int                  { return rt.nworkers }
func (rt *GOMP) panicBox() *panicBox           { return &rt.panics }
func (rt *GOMP) cancelState() *api.CancelState { return &rt.cancel }
func (rt *GOMP) recorder() *trace.Recorder     { return rt.rec }

func (rt *GOMP) spawn(t *task, worker int) {
	rt.rec.Worker(worker)[trace.Spawns].Add(1)
	rt.mu.Lock()
	rt.queue = append(rt.queue, t)
	rt.mu.Unlock()
}

func (rt *GOMP) take(worker int) (*task, bool) {
	rt.mu.Lock()
	n := len(rt.queue)
	if n == 0 {
		rt.mu.Unlock()
		rt.rec.Worker(worker)[trace.FailedSteals].Add(1)
		return nil, false
	}
	t := rt.queue[n-1]
	rt.queue[n-1] = nil
	rt.queue = rt.queue[:n-1]
	rt.mu.Unlock()
	rt.rec.Worker(worker)[trace.Steals].Add(1)
	return t, true
}

func (rt *GOMP) taskwait(s *scope) {
	w := s.c.worker
	rt.rec.Worker(w)[trace.ExplicitSyncs].Add(1)
	fails := 0
	for s.pending.Load() != 0 {
		if t, ok := rt.take(w); ok {
			execute(rt, t, rt.ctxs, w)
			fails = 0
			continue
		}
		fails++
		idleBackoff(fails)
	}
}

// Run implements api.Runtime.
func (rt *GOMP) Run(root func(api.Ctx)) {
	_ = rt.runInternal(nil, root)
}

// RunCtx implements api.Runtime; see the interface contract for the
// cooperative drain semantics.
func (rt *GOMP) RunCtx(ctx context.Context, root func(api.Ctx)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return rt.runInternal(ctx, root)
}

func (rt *GOMP) runInternal(ctx context.Context, root func(api.Ctx)) error {
	if !rt.running.CompareAndSwap(false, true) {
		panic("omp: concurrent Run on the same GOMP runtime")
	}
	defer rt.running.Store(false)
	rt.done.Store(false)
	stop := rt.cancel.Begin(ctx, nil)
	defer stop()
	var wg sync.WaitGroup
	for w := 1; w < rt.nworkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fails := 0
			for !rt.done.Load() {
				if t, ok := rt.take(w); ok {
					execute(rt, t, rt.ctxs, w)
					fails = 0
					continue
				}
				fails++
				idleBackoff(fails)
			}
		}(w)
	}
	func() {
		defer rt.panics.contain()
		root(&rt.ctxs[0])
	}()
	rt.done.Store(true)
	wg.Wait()
	rt.panics.rethrow()
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// ---------------------------------------------------------------------------
// LibOMP-like: per-worker locked deques, child stealing, tied/untied.

// OMP is the libomp-like runtime.
type OMP struct {
	nworkers int
	mode     Mode
	deques   []deque.Deque[task]
	ctxs     []ctx
	rngs     []uint64
	rec      *trace.Recorder
	done     atomic.Bool
	running  atomic.Bool
	cancel   api.CancelState
	panics   panicBox
}

// NewOMP creates a libomp-like runtime with the given worker count and
// task mode.
func NewOMP(workers int, mode Mode) *OMP {
	if workers <= 0 {
		workers = 1
	}
	rt := &OMP{
		nworkers: workers,
		mode:     mode,
		deques:   make([]deque.Deque[task], workers),
		ctxs:     make([]ctx, workers),
		rngs:     make([]uint64, workers),
		rec:      trace.NewRecorder(workers),
	}
	for w := 0; w < workers; w++ {
		// libomp guards its per-thread deques with locks.
		rt.deques[w] = deque.New[task](deque.Locked, 256)
		rt.ctxs[w] = ctx{rt: rt, worker: w}
		rt.rngs[w] = uint64(w)*0x9e3779b97f4a7c15 + 7
	}
	return rt
}

// Name implements api.Runtime.
func (rt *OMP) Name() string { return "libomp-" + rt.mode.String() }

// Workers implements api.Runtime.
func (rt *OMP) Workers() int { return rt.nworkers }

// Counters aggregates event counters.
func (rt *OMP) Counters() trace.Counters { return rt.rec.Aggregate() }

// Mode reports the task mode.
func (rt *OMP) Mode() Mode { return rt.mode }

func (rt *OMP) workers() int                  { return rt.nworkers }
func (rt *OMP) panicBox() *panicBox           { return &rt.panics }
func (rt *OMP) cancelState() *api.CancelState { return &rt.cancel }
func (rt *OMP) recorder() *trace.Recorder     { return rt.rec }

func (rt *OMP) spawn(t *task, worker int) {
	rt.rec.Worker(worker)[trace.Spawns].Add(1)
	rt.deques[worker].PushBottom(t)
}

func (rt *OMP) nextRand(w int) uint64 {
	x := rt.rngs[w]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rt.rngs[w] = x
	return x
}

func (rt *OMP) stealOnce(w int) (*task, bool) {
	victim := int(rt.nextRand(w) % uint64(rt.nworkers))
	t, ok := rt.deques[victim].PopTop()
	if ok {
		rt.rec.Worker(w)[trace.Steals].Add(1)
	} else {
		rt.rec.Worker(w)[trace.FailedSteals].Add(1)
	}
	return t, ok
}

// taskwait: a waiting thread always may run its own deque's tasks; only
// untied mode lets it steal while waiting (OpenMP task scheduling
// constraint on tied tasks).
func (rt *OMP) taskwait(s *scope) {
	w := s.c.worker
	rec := rt.rec.Worker(w)
	rec[trace.ExplicitSyncs].Add(1)
	fails := 0
	for s.pending.Load() != 0 {
		if t, ok := rt.deques[w].PopBottom(); ok {
			rec[trace.LocalResumes].Add(1)
			execute(rt, t, rt.ctxs, w)
			fails = 0
			continue
		}
		if rt.mode == Untied {
			if t, ok := rt.stealOnce(w); ok {
				execute(rt, t, rt.ctxs, w)
				fails = 0
				continue
			}
		}
		fails++
		idleBackoff(fails)
	}
}

// Run implements api.Runtime.
func (rt *OMP) Run(root func(api.Ctx)) {
	_ = rt.runInternal(nil, root)
}

// RunCtx implements api.Runtime; see the interface contract for the
// cooperative drain semantics.
func (rt *OMP) RunCtx(ctx context.Context, root func(api.Ctx)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return rt.runInternal(ctx, root)
}

func (rt *OMP) runInternal(ctx context.Context, root func(api.Ctx)) error {
	if !rt.running.CompareAndSwap(false, true) {
		panic("omp: concurrent Run on the same OMP runtime")
	}
	defer rt.running.Store(false)
	rt.done.Store(false)
	stop := rt.cancel.Begin(ctx, nil)
	defer stop()
	var wg sync.WaitGroup
	for w := 1; w < rt.nworkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fails := 0
			for !rt.done.Load() {
				// Idle workers steal in both modes; tied-ness only
				// restricts threads waiting inside a taskwait.
				if t, ok := rt.deques[w].PopBottom(); ok {
					rt.rec.Worker(w)[trace.LocalResumes].Add(1)
					execute(rt, t, rt.ctxs, w)
					fails = 0
					continue
				}
				if t, ok := rt.stealOnce(w); ok {
					execute(rt, t, rt.ctxs, w)
					fails = 0
					continue
				}
				fails++
				idleBackoff(fails)
			}
		}(w)
	}
	func() {
		defer rt.panics.contain()
		root(&rt.ctxs[0])
	}()
	rt.done.Store(true)
	wg.Wait()
	rt.panics.rethrow()
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

var (
	_ api.Runtime = (*GOMP)(nil)
	_ api.Runtime = (*OMP)(nil)
)
