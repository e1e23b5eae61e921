package sched_test

import (
	"sync/atomic"
	"testing"
	"time"

	"nowa"
	"nowa/internal/api"
	"nowa/internal/deque"
	"nowa/internal/sched"
)

// TestWakeSlotNoStarvation: on one worker a Channel ping-pong hands the
// token back and forth through the next-wakeup slot. A Future completed
// by a goroutine outside the runtime queues its awaiter's wakeup behind
// no slot: every later slot wakeup sees the queue non-empty and joins it,
// so the awaiter runs before the ping-pong ends.
func TestWakeSlotNoStarvation(t *testing.T) {
	const rounds = 10000
	rt := sched.MustNew(sched.Config{
		Name: "nowa", Workers: 1, Deque: deque.CL, Join: sched.WaitFree,
		Spawn: sched.SpawnEager,
	})
	defer rt.Close()
	ping, pong := nowa.NewChannel[int](1), nowa.NewChannel[int](1)
	f := nowa.NewFuture[int]()
	started := make(chan struct{})
	go func() {
		<-started
		f.Complete(1)
	}()
	var round atomic.Int64
	ranAt := int64(-1)
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(c api.Ctx) {
			if _, err := f.Await(c); err != nil {
				t.Error(err)
			}
			ranAt = round.Load()
		})
		s.Spawn(func(c api.Ctx) {
			for i := 0; i < rounds; i++ {
				v, _ := ping.Recv(c)
				_ = pong.Send(c, v)
			}
		})
		for i := 0; i < rounds; i++ {
			if i == 100 {
				close(started)
			}
			_ = ping.Send(c, i)
			_, _ = pong.Recv(c)
			round.Store(int64(i + 1))
		}
		s.Sync()
	})
	if ranAt < 0 || ranAt >= rounds {
		t.Errorf("the Future's awaiter ran after round %d of %d: starved by the ping-pong", ranAt, rounds)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Error(err)
	}
}

// TestWakeSlotOtherRuntime: a channel shared by two runtimes. A strand of
// one wakes a receiver parked on the other; the wakeup must go to the
// receiver's own runtime, not into the waker's slot, or it would resume
// on a token of the wrong runtime.
func TestWakeSlotOtherRuntime(t *testing.T) {
	cfg := sched.Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: sched.WaitFree, Spawn: sched.SpawnEager}
	a, b := sched.MustNew(cfg), sched.MustNew(cfg)
	defer a.Close()
	defer b.Close()
	ch := nowa.NewChannel[int](1)
	got := make(chan int, 1)
	go a.Run(func(c api.Ctx) {
		v, _ := ch.Recv(c)
		got <- v
	})
	for a.Stats().BlockedLive == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	b.Run(func(c api.Ctx) { _ = ch.Send(c, 7) })
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("received %d, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the receiver on the other runtime was never resumed")
	}
	for a.Stats().VesselsPooled < 0 { // a's Run is still winding down
		time.Sleep(100 * time.Microsecond)
	}
	for _, rt := range []*sched.Runtime{a, b} {
		if err := rt.CheckIdle(); err != nil {
			t.Error(err)
		}
	}
}
