// Package childsteal is the TBB-like comparator runtime (§II-B): at a
// spawn, the *child task* is made stealable while the parent keeps running
// its continuation. The paper's characterisation, reproduced here:
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
// The deque algorithm is configurable; the default CL deque is *generous*
// to this baseline (real TBB 2017 used locks), so measured gaps versus the
// continuation-stealing runtimes are conservative.
package childsteal

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

// Config parameterises the runtime.
type Config struct {
	// Name labels the variant (default "tbb").
	Name string
	// Workers is the worker-thread count (default 1).
	Workers int
	// Deque selects the work-stealing queue algorithm (default CL).
	Deque deque.Algorithm
	// Seed seeds victim selection (default 1).
	Seed int64
	// Chaos, if non-nil, enables seeded fault injection on the steal
	// path (see Chaos). Costs one pointer check per steal when nil.
	Chaos *Chaos
}

// Chaos configures seeded fault injection for the child-stealing
// runtime: sound perturbations (delays and abandoned steal attempts)
// driven by a dedicated per-worker RNG stream, mirroring the
// continuation-stealing runtime's chaos hook. Rates are in units of
// 1/1024 per steal attempt.
type Chaos struct {
	// Seed seeds the chaos streams (0: inherit Config.Seed).
	Seed int64
	// StealDelay delays a thief before its popTop attempt.
	StealDelay int
	// StealFail abandons a steal attempt as a failed steal.
	StealFail int
	// DelaySpins is the number of yields per injected delay (default 16).
	DelaySpins int
}

func (c *Config) fill() {
	if c.Name == "" {
		c.Name = "tbb"
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Chaos != nil {
		cc := *c.Chaos
		if cc.Seed == 0 {
			cc.Seed = c.Seed
		}
		if cc.DelaySpins <= 0 {
			cc.DelaySpins = 16
		}
		c.Chaos = &cc
	}
}

// task is one spawned child; heap-allocated per spawn by design.
type task struct {
	fn func(api.Ctx)
	sc *scope
}

// Runtime is a child-stealing fork/join runtime.
type Runtime struct {
	cfg       Config
	deques    []deque.Deque[task]
	ctxs      []ctx
	rngs      []uint64
	chaosRngs []uint64
	rec       *trace.Recorder
	done      atomic.Bool
	run       atomic.Bool
	cancel    api.CancelState

	panicMu  sync.Mutex
	panicked *api.StrandPanic
}

// New creates a runtime.
func New(cfg Config) *Runtime {
	cfg.fill()
	rt := &Runtime{
		cfg:    cfg,
		deques: make([]deque.Deque[task], cfg.Workers),
		ctxs:   make([]ctx, cfg.Workers),
		rngs:   make([]uint64, cfg.Workers),
		rec:    trace.NewRecorder(cfg.Workers),
	}
	for w := 0; w < cfg.Workers; w++ {
		rt.deques[w] = deque.New[task](cfg.Deque, 256)
		rt.ctxs[w] = ctx{rt: rt, worker: w}
		rt.rngs[w] = uint64(cfg.Seed) + uint64(w)*0x9e3779b97f4a7c15 + 1
	}
	if cfg.Chaos != nil {
		rt.chaosRngs = make([]uint64, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			rt.chaosRngs[w] = uint64(cfg.Chaos.Seed)*0xbf58476d1ce4e5b9 + uint64(w) + 1
		}
	}
	return rt
}

// NewTBB returns the default TBB-like configuration.
func NewTBB(workers int) *Runtime {
	return New(Config{Name: "tbb", Workers: workers, Deque: deque.CL})
}

// Name implements api.Runtime.
func (rt *Runtime) Name() string { return rt.cfg.Name }

// Workers implements api.Runtime.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Counters aggregates scheduler event counters (exact when idle).
func (rt *Runtime) Counters() trace.Counters { return rt.rec.Aggregate() }

// Run implements api.Runtime. The root strand executes on worker 0; the
// remaining workers steal until the computation completes.
func (rt *Runtime) Run(root func(api.Ctx)) {
	_ = rt.runInternal(nil, root)
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
	return rt.runInternal(ctx, root)
}

func (rt *Runtime) runInternal(ctx context.Context, root func(api.Ctx)) error {
	if !rt.run.CompareAndSwap(false, true) {
		panic("childsteal: concurrent Run on the same Runtime")
	}
	defer rt.run.Store(false)
	rt.done.Store(false)
	stop := rt.cancel.Begin(ctx, nil)
	defer stop()
	var wg sync.WaitGroup
	for w := 1; w < rt.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt.workerLoop(w)
		}(w)
	}
	func() {
		defer rt.containPanic()
		root(&rt.ctxs[0])
	}()
	// Fully-strict: when root returns every spawned task has joined.
	rt.done.Store(true)
	wg.Wait()

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

// containPanic records the first panic of the current Run, tallying
// later ones on it via StrandPanic.Suppress; deferred around every task
// execution and the root.
func (rt *Runtime) containPanic() {
	if r := recover(); r != nil {
		rt.panicMu.Lock()
		if rt.panicked == nil {
			rt.panicked = &api.StrandPanic{Value: r, Stack: debug.Stack()}
		} else {
			rt.panicked.Suppress(r)
		}
		rt.panicMu.Unlock()
	}
}

func (rt *Runtime) workerLoop(w int) {
	fails := 0
	for !rt.done.Load() {
		if t, ok := rt.stealOnce(w); ok {
			fails = 0
			rt.execute(t, w)
			continue
		}
		fails++
		idleBackoff(fails)
	}
}

// stealOnce picks a random victim and attempts one popTop, first passing
// through the chaos window when fault injection is configured.
func (rt *Runtime) stealOnce(w int) (*task, bool) {
	rec := rt.rec.Worker(w)
	if ch := rt.cfg.Chaos; ch != nil {
		if rt.chaosRoll(w, ch.StealFail) {
			rec[trace.FailedSteals].Add(1)
			return nil, false
		}
		if rt.chaosRoll(w, ch.StealDelay) {
			for i := 0; i < ch.DelaySpins; i++ {
				runtime.Gosched()
			}
		}
	}
	victim := int(rt.nextRand(w) % uint64(rt.cfg.Workers))
	t, ok := rt.deques[victim].PopTop()
	if ok {
		rec[trace.Steals].Add(1)
	} else {
		rec[trace.FailedSteals].Add(1)
	}
	return t, ok
}

// chaosRoll draws from worker w's chaos stream (owner-only, like the
// victim RNG) and reports whether a rate/1024 injection fires.
func (rt *Runtime) chaosRoll(w, rate int) bool {
	if rate <= 0 {
		return false
	}
	x := rt.chaosRngs[w]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rt.chaosRngs[w] = x
	return int(x&1023) < rate
}

func (rt *Runtime) nextRand(w int) uint64 {
	x := rt.rngs[w]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rt.rngs[w] = x
	return x
}

func (rt *Runtime) execute(t *task, w int) {
	defer t.sc.pending.Add(-1)
	defer rt.containPanic()
	t.fn(&rt.ctxs[w])
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

// ctx is a worker-bound execution context. Unlike the continuation-
// stealing runtime, the spawning strand never migrates: its worker is
// fixed, which is exactly the pinned-stack property of child stealing.
type ctx struct {
	rt     *Runtime
	worker int
}

// Workers implements api.Ctx.
func (c *ctx) Workers() int { return c.rt.cfg.Workers }

// Done implements api.Ctx.
func (c *ctx) Done() <-chan struct{} { return c.rt.cancel.Done() }

// Err implements api.Ctx.
func (c *ctx) Err() error { return c.rt.cancel.Err() }

// Scope implements api.Ctx.
func (c *ctx) Scope() api.Scope { return &scope{c: c} }

// scope tracks outstanding children with an atomic reference count, the
// TBB-style task counter.
type scope struct {
	c       *ctx
	pending atomic.Int64
}

// Spawn allocates the child task and publishes it on the current worker's
// deque; the parent continues immediately. Once the run is cancelled it
// degrades to inline execution (no task allocation, no publication) with
// the usual strand-panic containment.
func (s *scope) Spawn(fn func(api.Ctx)) {
	rt := s.c.rt
	if rt.cancel.Cancelled() {
		rt.rec.Worker(s.c.worker)[trace.InlineSpawns].Add(1)
		func() {
			defer rt.containPanic()
			fn(s.c)
		}()
		return
	}
	s.pending.Add(1)
	rt.rec.Worker(s.c.worker)[trace.Spawns].Add(1)
	rt.deques[s.c.worker].PushBottom(&task{fn: fn, sc: s})
}

// Sync blocks until all children joined, helping by executing local tasks
// (reverse spawn order) and stealing when the local deque runs dry.
func (s *scope) Sync() {
	rt := s.c.rt
	w := s.c.worker
	rec := rt.rec.Worker(w)
	rec[trace.ExplicitSyncs].Add(1)
	fails := 0
	for s.pending.Load() != 0 {
		if t, ok := rt.deques[w].PopBottom(); ok {
			rec[trace.LocalResumes].Add(1)
			rt.execute(t, w)
			fails = 0
			continue
		}
		if t, ok := rt.stealOnce(w); ok {
			rt.execute(t, w)
			fails = 0
			continue
		}
		fails++
		idleBackoff(fails)
	}
}

var (
	_ api.Runtime = (*Runtime)(nil)
	_ api.Ctx     = (*ctx)(nil)
	_ api.Scope   = (*scope)(nil)
)
