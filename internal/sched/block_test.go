package sched

import (
	"context"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/cqs"
	"nowa/internal/deque"
)

// The suspension half of the external-wait protocol (block.go), driven
// through the raw PrepareWait/CommitWait/Wake surface so the tests can
// see what the public primitives hide: which way the token went, the
// blocked gauge, the parker's pending delivery.

// blockRuntime is a one-worker eager-spawn runtime: with a single token
// every handoff in these tests is forced, not a matter of timing.
func blockRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt := MustNew(Config{Name: "nowa", Workers: 1, Deque: deque.CL, Join: WaitFree, Spawn: SpawnEager})
	t.Cleanup(rt.Close)
	return rt
}

// assertWaitsSettled is the §16 bar on an idle runtime: every wait ended
// exactly once, nothing parked or queued, nothing leaked.
func assertWaitsSettled(t *testing.T, rt *Runtime) {
	t.Helper()
	if err := rt.Counters().CheckQuiescent(); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if live, pending := rt.blockedLive(), rt.wakeq.Pending(); live != 0 || pending {
		t.Errorf("blockedLive = %d, wakeup queued = %v; want 0, false", live, pending)
	}
	if st := rt.Stats(); st.VesselsLeaked != 0 || st.StacksLeaked != 0 || st.ScopesLeaked != 0 {
		t.Errorf("leaks: vessels=%d stacks=%d scopes=%d", st.VesselsLeaked, st.StacksLeaked, st.ScopesLeaked)
	}
}

// pairWait and pairPost are a channel's slow path in miniature, on a
// bare cqs.Queue where each post pairs with one wait: the wait parks
// until its post, and a post that runs first leaves a deposit the wait
// consumes without parking.
func pairWait(p *Proc, q *cqs.Queue) {
	bw := p.PrepareWait()
	if _, registered := q.Enqueue(bw); !registered {
		return
	}
	p.CommitWait(bw)
}

func pairPost(q *cqs.Queue) {
	if h, oc := q.Resume(); oc == cqs.Woke {
		h.(*Waiter).Wake()
	}
}

// TestBlockDirectHandoffPingPong: on one worker, two strands that block
// on each other in turn pass the only token back and forth through the
// wake queue — each block finds the other's wakeup already queued.
func TestBlockDirectHandoffPingPong(t *testing.T) {
	const rounds = 200
	rt := blockRuntime(t)
	ping, pong := cqs.NewQueue(), cqs.NewQueue()
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(c api.Ctx) {
			for i := 0; i < rounds; i++ {
				pairWait(c.(*Proc), ping)
				pairPost(pong)
			}
		})
		for i := 0; i < rounds; i++ {
			pairPost(ping)
			pairWait(c.(*Proc), pong)
		}
		s.Sync()
	})
	c := rt.Counters()
	if c.BlockedWaits < rounds || c.DirectHandoffs < rounds {
		t.Errorf("BlockedWaits = %d, DirectHandoffs = %d over %d rounds; want both >= rounds",
			c.BlockedWaits, c.DirectHandoffs, rounds)
	}
	assertWaitsSettled(t, rt)
}

// TestBlockSelfWakeup: a waker that runs between the registration and
// CommitWait queues the strand's own wakeup; the strand pops it, keeps
// its token and returns without parking — no thief vessel, no parker
// event, and the gauge back at zero.
func TestBlockSelfWakeup(t *testing.T) {
	rt := blockRuntime(t)
	var aborted [2]bool
	rt.Run(func(c api.Ctx) {
		p := c.(*Proc)
		for i, wake := range []func(*Waiter){(*Waiter).Wake, (*Waiter).WakeAborted} {
			bw := p.PrepareWait()
			wake(bw)
			aborted[i] = p.CommitWait(bw)
			if p.worker != 0 {
				t.Errorf("wait %d: strand now on worker %d", i, p.worker)
			}
			if n := len(p.v.pk.wake); n != 0 {
				t.Errorf("wait %d: %d parker deliveries pending; the strand must not have parked", i, n)
			}
		}
	})
	if aborted != [2]bool{false, true} {
		t.Errorf("CommitWait reported aborted = %v, want [false true]", aborted)
	}
	c := rt.Counters()
	if c.BlockedWaits != 2 || c.ResumedWaits != 1 || c.AbortedWaits != 1 || c.DirectHandoffs != 2 {
		t.Errorf("blocked=%d resumed=%d aborted=%d direct=%d, want 2 1 1 2",
			c.BlockedWaits, c.ResumedWaits, c.AbortedWaits, c.DirectHandoffs)
	}
	if hw := rt.Stats().VesselHighWater; hw != 1 {
		t.Errorf("vessel high water %d: a thief vessel was drawn for a wait that never parked", hw)
	}
	assertWaitsSettled(t, rt)
}

// TestBlockAbortServedByNeighbour: an abort fired from a
// context.AfterFunc goroutine queues the victim's cancellation wakeup
// while no thief exists (one worker, and its token is busy); the next
// strand to block hands the token straight to the victim.
func TestBlockAbortServedByNeighbour(t *testing.T) {
	rt := blockRuntime(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var victimAborted bool
	var rootWait *Waiter
	queued := make(chan struct{})
	rt.Run(func(c api.Ctx) {
		p := c.(*Proc)
		s := c.Scope()
		s.Spawn(func(c api.Ctx) {
			vp := c.(*Proc)
			bw := vp.PrepareWait()
			stop := context.AfterFunc(ctx, func() {
				bw.WakeAborted()
				close(queued)
			})
			defer stop()
			// Blocking claims the root's continuation: the root runs on.
			victimAborted = vp.CommitWait(bw)
			rootWait.Wake()
		})
		rootWait = p.PrepareWait()
		cancel()
		<-queued
		if p.CommitWait(rootWait) {
			t.Error("root's wait reported aborted")
		}
		s.Sync()
	})
	if !victimAborted {
		t.Error("victim's wait did not report aborted")
	}
	c := rt.Counters()
	if c.BlockedWaits != 2 || c.ResumedWaits != 1 || c.AbortedWaits != 1 || c.DirectHandoffs != 1 {
		t.Errorf("blocked=%d resumed=%d aborted=%d direct=%d, want 2 1 1 1",
			c.BlockedWaits, c.ResumedWaits, c.AbortedWaits, c.DirectHandoffs)
	}
	if hw := rt.Stats().VesselHighWater; hw != 2 {
		t.Errorf("vessel high water %d, want 2 (root and victim): the handoffs needed no thief vessel", hw)
	}
	assertWaitsSettled(t, rt)
}

// TestWaitParkerRendezvous is the parker's table: a delivery that lands
// before the owner parks and one that lands after it blocked are each
// consumed exactly once, and deliver returns without blocking either way
// (it runs on the test goroutine: a blocking send would hang the test).
// A second delivery while one is pending breaks the one-event invariant
// and panics.
func TestWaitParkerRendezvous(t *testing.T) {
	t.Run("no-spin", func(t *testing.T) {
		var pk parker
		pk.init()
		settled := func(when string) {
			t.Helper()
			if n := len(pk.wake); n != 0 {
				t.Fatalf("%s: %d deliveries pending, want none", when, n)
			}
		}
		for round := 0; round < 3; round++ {
			pk.deliver()
			pk.await()
			settled("deliver-before-park")

			done := make(chan struct{})
			go func() { pk.await(); close(done) }()
			// Let the owner block first; the round is also correct if
			// the delivery still beats it.
			time.Sleep(time.Millisecond)
			pk.deliver()
			<-done
			settled("deliver-after-park")
		}
	})
	t.Run("double-delivery-panics", func(t *testing.T) {
		var pk parker
		pk.init()
		pk.deliver()
		defer func() {
			if recover() == nil {
				t.Error("a second delivery while one was pending did not panic")
			}
			if n := len(pk.wake); n != 1 {
				t.Errorf("%d deliveries pending after the refused one, want 1", n)
			}
		}()
		pk.deliver()
	})
}
