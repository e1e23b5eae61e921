package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/cqs"
	"nowa/internal/deque"
	"nowa/internal/trace"
)

// The idle protocol (steal.go stealBackoff, runtime.go parkThief /
// wakeThief / wakeThieves): a thief yields spinBeforePark times, then
// sleeps on the idle queue; one publication wakes one sleeper, a
// condition everybody must re-check wakes all.

func idleRuntime(t *testing.T, workers int, victims [][]int) *Runtime {
	t.Helper()
	rt := MustNew(Config{
		Name: "nowa", Workers: workers, Deque: deque.CL, Join: WaitFree,
		Spawn: SpawnEager,
	})
	for w, vs := range victims {
		rt.slots[w].script = vs
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestIdleServiceStopsCounting: once a service has nothing to do, every
// token is asleep — not polling on a timer, and none held by a strand
// waiting for the next submission. Twenty milliseconds after the last
// completion the failed-steal tally has stopped moving.
func TestIdleServiceStopsCounting(t *testing.T) {
	rt := NewNowa(4)
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	var subs []*Submission
	for i := 0; i < 32; i++ {
		sub, err := rt.SubmitCtxOpts(nil, func(c api.Ctx) { fib(c, 10) }, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	for _, sub := range subs {
		if err := sub.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	before := rt.Counters()
	time.Sleep(50 * time.Millisecond)
	after := rt.Counters()
	if before.FailedSteals != after.FailedSteals {
		t.Errorf("an idle service still polls: FailedSteals %d -> %d over 50 ms", before.FailedSteals, after.FailedSteals)
	}
	if after.ThiefParks < 4 || !rt.idle.Waiting() {
		t.Errorf("ThiefParks = %d, sleepers = %v; want all four tokens asleep", after.ThiefParks, rt.idle.Waiting())
	}
}

// TestIdleWakeOne: with three thieves asleep, one publication wakes one
// of them; the other two sleep on until the root's completion wakes
// everybody to retire.
func TestIdleWakeOne(t *testing.T) {
	rt := idleRuntime(t, 4, nil)
	rt.Run(func(c api.Ctx) {
		if !awaitCond(t, "three thieves to park", func() bool { return rt.Counters().ThiefParks == 3 }) {
			return
		}
		s := c.Scope()
		s.Spawn(func(api.Ctx) {
			// The parent's continuation is published and this child holds
			// the root's token: nothing else is published while it waits.
			awaitCond(t, "the publication to wake a thief", func() bool { return rt.Counters().ThiefWakeups >= 1 })
			time.Sleep(20 * time.Millisecond)
			if n := rt.Counters().ThiefWakeups; n != 1 {
				t.Errorf("one publication woke %d thieves, want exactly 1", n)
			}
		})
		s.Sync()
	})
	c := rt.Counters()
	if c.ThiefWakeups != c.ThiefParks || c.ThiefParks < 3 || c.Steals != 1 {
		t.Errorf("parks=%d wakeups=%d steals=%d; want every park woken, at least 3 parks, 1 steal",
			c.ThiefParks, c.ThiefWakeups, c.Steals)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleNoParkBesideWork: a token that turns thief while a continuation
// sits in somebody else's deque — published when nobody slept, so nobody
// was woken for it — must not go to sleep beside it. A victim script
// has the thief on token 1 draw itself through two whole spin budgets
// before it is allowed to look at token 0, so both park attempts run, and
// both must be declined by the re-scan.
func TestIdleNoParkBesideWork(t *testing.T) {
	var script []int
	for _, seg := range []struct{ n, victim int }{
		{spinBeforePark + 1, 1}, {1, 0}, {2 * (spinBeforePark + 1), 1}, {1, 0}} {
		for i := 0; i < seg.n; i++ {
			script = append(script, seg.victim)
		}
	}
	rt := idleRuntime(t, 2, [][]int{nil, script})
	parks := func() int64 { return rt.Counters().ThiefParks }
	var rootStolen, published, resumed atomic.Bool
	spin := func(f *atomic.Bool) {
		for !f.Load() {
			runtime.Gosched()
		}
	}
	rt.Run(func(c api.Ctx) {
		if !awaitCond(t, "the thief to park", func() bool { return parks() == 1 }) {
			return
		}
		s := c.Scope()
		s.Spawn(func(c api.Ctx) {
			spin(&rootStolen)
			// Token 1 runs the root now: this publication finds no sleeper.
			s := c.Scope()
			s.Spawn(func(api.Ctx) {
				published.Store(true)
				spin(&resumed)
			})
			if w := c.(*Proc).worker; w != 1 {
				t.Errorf("the continuation resumed on token %d, want the thief's", w)
			}
			if n, fails := parks(), rt.rec.Worker(1)[trace.FailedSteals].Load(); n != 1 || fails < int64(len(script)-2) {
				t.Errorf("%d parks after %d failed steals; want the first park only, and the whole script drawn", n, fails)
			}
			resumed.Store(true)
			s.Sync()
		})
		rootStolen.Store(true)
		spin(&published)
		s.Sync() // suspends: token 1 turns thief beside the continuation in deque 0
	})
	if err := rt.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleWindDownParks: a cancelled run whose strands are blocked on a
// wait nobody resolves parks its idle tokens — without looking at the
// deques, since thieves of a cancelled run steal nothing: the root's
// continuation sits published throughout — and retires them once the
// waits abort.
func TestIdleWindDownParks(t *testing.T) {
	rt := idleRuntime(t, 3, nil)
	q := cqs.NewQueue() // the never-resolved future's waiters
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	var block atomic.Bool
	var base atomic.Int64 // ThiefParks when the wind-down began
	base.Store(-1)
	parks := func() int64 { return rt.Counters().ThiefParks }
	wait := func(c api.Ctx) {
		started.Add(1)
		for !block.Load() {
			runtime.Gosched()
		}
		p := c.(*Proc)
		bw := p.PrepareWait()
		if _, ok := q.Enqueue(bw); !ok {
			t.Error("the wait was resumed before it registered")
			return
		}
		if !p.CommitWait(bw) {
			t.Error("the wait was resumed, want aborted")
		}
	}
	go func() {
		// The test's hand on the future: abort both waits once all three
		// tokens sleep through the wind-down.
		awaitCond(t, "all three tokens to park in the wind-down", func() bool { b := base.Load(); return b >= 0 && parks() == b+3 })
		for i := 0; i < 2; i++ {
			if h, oc := q.Resume(); oc == cqs.Woke {
				h.(*Waiter).WakeAborted()
			}
		}
	}()
	err := rt.RunCtx(ctx, func(c api.Ctx) {
		s := c.Scope()
		// Each of the first two continuations is stolen by an idle token,
		// so the three children end up one per token and the third spawn's
		// continuation stays where it was pushed.
		s.Spawn(wait)
		s.Spawn(wait)
		s.Spawn(func(c api.Ctx) {
			awaitCond(t, "both waiters to start", func() bool { return started.Load() == 2 })
			base.Store(parks())
			cancel()
			awaitCond(t, "the cancellation to latch", rt.cancel.Cancelled)
			block.Store(true)
			awaitCond(t, "both idle tokens to park beside the published continuation", func() bool { return parks() == base.Load()+2 })
			if n := rt.slots[c.(*Proc).worker].size(); n != 1 {
				t.Errorf("deque holds %d continuations, want the root's", n)
			}
		})
		s.Sync()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run: %v, want context.Canceled", err)
	}
	if c := rt.Counters(); c.ThiefWakeups != c.ThiefParks || c.AbortedWaits != 2 {
		t.Errorf("parks=%d wakeups=%d aborted=%d; want every park woken and 2 aborted waits", c.ThiefParks, c.ThiefWakeups, c.AbortedWaits)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}
