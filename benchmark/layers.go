package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nowa"
	"nowa/internal/cactus"
	"nowa/internal/core"
	"nowa/internal/cqs"
	"nowa/internal/deque"
	"nowa/internal/resilience"
	"nowa/internal/sched"
)

// The layer ledger: tight loops around each layer's public functions, so
// every layer a round or a submission crosses has its own cost on record
// beside the end-to-end figures. Nothing here reaches into a layer — a
// probe is a caller like any other.

// ledgerRounds is how often every probe is sampled; probes are
// interleaved round by round and each reports its median, so a host stall
// lands on one sample of a few probes and not on one probe's figure.
const ledgerRounds = 5

// probe measures for about d and records one or more metrics.
type probe func(d time.Duration, put func(name string, v float64))

// timeLoop calls loop(batch) until d has passed and returns ns per
// operation; loop runs its n operations inline, so no call is billed.
func timeLoop(d time.Duration, batch int, loop func(n int)) float64 {
	n, start := 0, time.Now()
	for {
		loop(batch)
		n += batch
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// timedLoop is timeLoop for probes whose every batch needs untimed
// preparation: loop returns the time its n operations took.
func timedLoop(d time.Duration, batch int, loop func(n int) time.Duration) float64 {
	n, start, timed := 0, time.Now(), time.Duration(0)
	for {
		timed += loop(batch)
		n += batch
		if time.Since(start) >= d {
			return float64(timed.Nanoseconds()) / float64(n)
		}
	}
}

func noop(nowa.Ctx) {}

// ledger holds the warm fixtures the probes share.
type ledger struct {
	one   *sched.Runtime // 1 worker, adaptive spawn
	eager *sched.Runtime // 1 worker, eager spawn
	wide  *sched.Runtime // workers(), adaptive spawn
	serve *sched.Runtime // workers(), serving, Block, idle
	full  *sched.Runtime // 1 worker, serving, FailFast queue of 1
	rep   *report
}

// runLedger samples every probe ledgerRounds times within budget and
// writes the medians into rep.
func runLedger(budget time.Duration, rep *report) {
	l := &ledger{
		one: newRuntime(1, false), eager: newRuntime(1, true), wide: newRuntime(workers(), false),
		serve: newRuntime(workers(), false), full: newRuntime(1, false), rep: rep,
	}
	if err := nowa.StartService(l.serve, nowa.ServiceConfig{}); err != nil {
		rep.violate("ledger: %v", err)
		return
	}
	if err := nowa.StartService(l.full, nowa.ServiceConfig{QueueDepth: 1, Policy: nowa.OverloadFailFast}); err != nil {
		rep.violate("ledger: %v", err)
		return
	}
	probes := l.probes()
	d := budget / time.Duration(ledgerRounds*len(probes))
	samples := map[string][]float64{}
	put := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for r := 0; r < ledgerRounds; r++ {
		for _, p := range probes {
			p(d, put)
		}
	}
	for name, s := range samples {
		rep.Values[name] = median(s)
	}
	for _, rt := range []*sched.Runtime{l.one, l.eager, l.wide, l.serve, l.full} {
		nowa.Close(rt)
		checkClosed(rt, rep)
	}
}

func (l *ledger) probes() []probe {
	ps := []probe{
		l.joins, l.wakeQueue, l.cqs, l.cactus,
		l.spawn, l.goschedFloor, l.runRoundTrip, l.countersCall,
		l.submit, l.reject, l.blocking,
	}
	for _, d := range dequeAlgs {
		ps = append(ps, dequeProbe(d.key, d.alg))
	}
	return ps
}

// dequeProbe covers one deque algorithm: owner push+pop, uncontended
// steal off a pre-filled deque and, for the two the variants use, a steal
// against a live owner.
func dequeProbe(key string, alg deque.Algorithm) probe {
	return func(d time.Duration, put func(string, float64)) {
		const fill = 512
		item := new(int)
		dq := deque.New[int](alg, 2*fill)
		put("deque."+key+".push_pop_ns", timeLoop(d/3, 1024, func(n int) {
			for i := 0; i < n; i++ {
				dq.PushBottom(item)
				dq.PopBottom()
			}
		}))
		put("deque."+key+".steal_ns", timedLoop(d/3, fill, func(n int) time.Duration {
			// A fresh deque per batch: the bounded ABP deque does not win
			// back the slots a steal frees until its owner empties it.
			victim := deque.New[int](alg, 2*fill)
			for i := 0; i < n; i++ {
				victim.PushBottom(item)
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				victim.PopTop()
			}
			return time.Since(t0)
		}))
		if alg != deque.CL && alg != deque.THE {
			return
		}
		// One thief (this goroutine) against an owner that keeps the
		// deque between empty and 64 deep.
		var stop atomic.Bool
		var owner sync.WaitGroup
		owner.Add(1)
		go func() {
			defer owner.Done()
			for !stop.Load() {
				if dq.Size() < 64 {
					dq.PushBottom(item)
				} else {
					dq.PopBottom()
				}
			}
		}()
		hits, tries := 0, 0
		ns := timeLoop(d/3, 256, func(n int) {
			for i := 0; i < n; i++ {
				if _, ok := dq.PopTop(); ok {
					hits++
				}
			}
			tries += n
		})
		stop.Store(true)
		owner.Wait()
		put("deque."+key+".steal_contended_ns", ns)
		if alg == deque.CL {
			put("deque.cl.steal_success_share", ratio(float64(hits), float64(tries)))
		}
	}
}

// joins times one steal-join-sync-rearm cycle of each join protocol.
func (l *ledger) joins(d time.Duration, put func(string, float64)) {
	cycle := func(j core.Join) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				j.OnSteal()
				j.OnChildJoin()
				j.SyncBegin()
				j.Rearm()
			}
		}
	}
	put("core.join.waitfree_cycle_ns", timeLoop(d/2, 1024, cycle(core.NewWaitFreeJoin())))
	put("core.join.locked_cycle_ns", timeLoop(d/2, 1024, cycle(core.NewLockedJoin())))
}

func (l *ledger) wakeQueue(d time.Duration, put func(string, float64)) {
	var q core.WakeQueue[int]
	put("core.wakequeue.push_pop_ns", timeLoop(d, 1024, func(n int) {
		for i := 0; i < n; i++ {
			q.Push(i)
			q.Pop()
		}
	}))
}

func (l *ledger) cqs(d time.Duration, put func(string, float64)) {
	q, h := cqs.NewQueue(), any(1)
	put("cqs.enqueue_resume_ns", timeLoop(d/3, 1024, func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(h)
			q.Resume()
		}
	}))
	put("cqs.enqueue_abort_ns", timeLoop(d/3, 1024, func(n int) {
		for i := 0; i < n; i++ {
			t, _ := q.Enqueue(h)
			t.TryAbort()
		}
	}))
	sem := cqs.NewSemaphore(1)
	put("cqs.sem.acquire_release_ns", timeLoop(d/3, 1024, func(n int) {
		for i := 0; i < n; i++ {
			sem.Acquire()
			sem.Release()
		}
	}))
}

// cactus times a stack get+put through the per-worker buffer and through
// the global pool (worker 1's buffer is kept full and worker 0's empty, so
// every put overflows to the global pool and every get falls through to it).
func (l *ledger) cactus(d time.Duration, put func(string, float64)) {
	local := cactus.NewPool(cactus.Config{Workers: 1})
	put("cactus.get_put_local_ns", timeLoop(d/2, 1024, func(n int) {
		for i := 0; i < n; i++ {
			s, _ := local.Get(0)
			local.Put(0, s)
		}
	}))
	global := cactus.NewPool(cactus.Config{Workers: 2})
	var held []*cactus.Stack
	for i := 0; i <= global.Config().PerWorkerCap; i++ {
		s, _ := global.Get(0)
		held = append(held, s)
	}
	for _, s := range held {
		global.Put(1, s)
	}
	put("cactus.get_put_global_ns", timeLoop(d/2, 1024, func(n int) {
		for i := 0; i < n; i++ {
			s, _ := global.Get(0)
			global.Put(1, s)
		}
	}))
}

// spawn times a spawn+sync of an empty child on one worker, lazily and
// eagerly, an empty sync, and what a lazy spawn allocates.
func (l *ledger) spawn(d time.Duration, put func(string, float64)) {
	spawnSync := func(c nowa.Ctx) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				s := c.Scope()
				s.Spawn(noop)
				s.Sync()
			}
		}
	}
	l.one.Run(func(c nowa.Ctx) {
		loop := spawnSync(c)
		put("sched.spawn_sync_ns", timeLoop(d/3, 1024, loop))
		s := c.Scope()
		put("sched.sync_empty_ns", timeLoop(d/6, 4096, func(n int) {
			for i := 0; i < n; i++ {
				s.Sync()
			}
		}))
		const n = 4096
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		loop(n)
		runtime.ReadMemStats(&m1)
		put("sched.spawn_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n)
		put("sched.spawn_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	})
	l.eager.Run(func(c nowa.Ctx) {
		put("sched.spawn_sync_eager_ns", timeLoop(d/3, 256, spawnSync(c)))
	})
}

// goschedFloor is the host reference the eager spawn is read against: one
// hand-off to a partner goroutine and back.
func (l *ledger) goschedFloor(d time.Duration, put func(string, float64)) {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	put("sched.gosched_floor_ns", timeLoop(d, 256, func(n int) {
		for i := 0; i < n; i++ {
			ping <- struct{}{}
			<-pong
		}
	}))
	close(ping)
}

func (l *ledger) runRoundTrip(d time.Duration, put func(string, float64)) {
	put("sched.run_roundtrip_us", timeLoop(d, 8, func(n int) {
		for i := 0; i < n; i++ {
			l.wide.Run(noop)
		}
	})/1e3)
}

func (l *ledger) countersCall(d time.Duration, put func(string, float64)) {
	l.wide.Run(func(nowa.Ctx) {
		put("sched.counters_call_ns", timeLoop(d, 256, func(n int) {
			for i := 0; i < n; i++ {
				l.wide.Counters()
			}
		}))
	})
}

// submit times the serving path on an idle service with one client: the
// whole round trip of an empty task, the Submit call alone (a batch is
// submitted under the clock and waited for off it), and ServiceInfo.
func (l *ledger) submit(d time.Duration, put func(string, float64)) {
	put("service.submit_roundtrip_us", timeLoop(d/3, 4, func(n int) {
		for i := 0; i < n; i++ {
			if sub, err := nowa.Submit(l.serve, noop, nowa.SubmitOpts{}); err != nil || sub.Wait() != nil {
				l.rep.violate("ledger: empty submission failed: %v", err)
			}
		}
	})/1e3)
	subs := make([]*nowa.Submission, 64)
	put("service.submit_call_ns", timedLoop(d/3, len(subs), func(n int) time.Duration {
		var err error
		t0 := time.Now()
		for i := 0; i < n; i++ {
			subs[i], err = nowa.Submit(l.serve, noop, nowa.SubmitOpts{})
			if err != nil {
				l.rep.violate("ledger: Submit: %v", err)
				return time.Since(t0)
			}
		}
		el := time.Since(t0)
		for _, s := range subs {
			s.Wait()
		}
		return el
	}))
	put("service.info_call_ns", timeLoop(d/3, 256, func(n int) {
		for i := 0; i < n; i++ {
			nowa.ServiceInfo(l.serve)
		}
	}))
}

// reject times the refuse path: the one worker of l.full is held by a
// task waiting on gate and the queue of one is filled, so every further
// Submit is refused at once. Do with a single attempt runs the same
// refusal through the resilience client; the difference is what the
// client adds to a call that does not wait.
func (l *ledger) reject(d time.Duration, put func(string, float64)) {
	gate, started := make(chan struct{}), make(chan struct{})
	hold, err := nowa.Submit(l.full, func(nowa.Ctx) { close(started); <-gate }, nowa.SubmitOpts{})
	if err != nil {
		l.rep.violate("ledger: holding submission refused: %v", err)
		return
	}
	<-started
	queued, err := nowa.Submit(l.full, noop, nowa.SubmitOpts{})
	if err != nil {
		l.rep.violate("ledger: queue-filling submission refused: %v", err)
	}
	refusals := 0
	bare := timeLoop(d/2, 256, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := nowa.Submit(l.full, noop, nowa.SubmitOpts{}); err != nil {
				refusals++
			}
		}
	})
	client := resilience.New(l.full, resilience.Policy{MaxAttempts: 1})
	ctx := context.Background()
	viaDo := timeLoop(d/2, 256, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Do(ctx, noop, nowa.SubmitOpts{}); err != nil {
				refusals++
			}
		}
	})
	close(gate)
	hold.Wait()
	if queued != nil {
		queued.Wait()
	}
	if refusals == 0 {
		l.rep.violate("ledger: a full FailFast queue refused nothing")
	}
	put("service.reject_call_ns", bare)
	put("resilience.do_overhead_ns", viaDo-bare)
}

// blocking times the blocking primitives on one eager worker, where every
// suspension and resumption is forced and nothing runs in parallel.
func (l *ledger) blocking(d time.Duration, put func(string, float64)) {
	l.eager.Run(func(c nowa.Ctx) {
		done := nowa.NewFuture[int]()
		done.Complete(1)
		put("nowa.future.await_done_ns", timeLoop(d/5, 1024, func(n int) {
			for i := 0; i < n; i++ {
				done.Await(c)
			}
		}))
		// The child awaits first and suspends; the parent completes the
		// future and its sync resumes the child.
		put("nowa.future.handoff_us", timeLoop(d/5, 64, func(n int) {
			for i := 0; i < n; i++ {
				f := nowa.NewFuture[int]()
				s := c.Scope()
				s.Spawn(func(c nowa.Ctx) { f.Await(c) })
				f.Complete(1)
				s.Sync()
			}
		})/1e3)
		buffered := nowa.NewChannel[int](64)
		put("nowa.channel.send_recv_ns", timeLoop(d/5, 1024, func(n int) {
			for i := 0; i < n; i++ {
				buffered.Send(c, i)
				buffered.Recv(c)
			}
		}))
		// An echo strand across two channels of one slot: on one worker
		// each receive finds its channel empty and suspends.
		to, from := nowa.NewChannel[int](1), nowa.NewChannel[int](1)
		s := c.Scope()
		s.Spawn(func(c nowa.Ctx) {
			for {
				v, err := to.Recv(c)
				if err != nil {
					return
				}
				from.Send(c, v)
			}
		})
		put("nowa.channel.pingpong_us", timeLoop(d/5, 64, func(n int) {
			for i := 0; i < n; i++ {
				to.Send(c, i)
				from.Recv(c)
			}
		})/1e3)
		to.Close()
		s.Sync()
		bar := nowa.NewBarrier(2)
		put("nowa.barrier.round_us", timeLoop(d/5, 64, func(n int) {
			s := c.Scope()
			s.Spawn(func(c nowa.Ctx) {
				for i := 0; i < n; i++ {
					bar.Wait(c)
				}
			})
			for i := 0; i < n; i++ {
				bar.Wait(c)
			}
			s.Sync()
		})/1e3)
	})
}
