package sched

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/cqs"
)

// The next-wakeup slot (block.go WakeNext, passToken, stealLoop and
// parkThief): a strand's single wakeup resumes on the waker's token, and
// another token takes it only once its thief's spin budget is spent.

// slotWait and slotPost are pairWait/pairPost with the wakeup routed
// through the waker's slot. slotPost stamps the waker's token into from
// before the resume; slotWait reports whether the strand parked and, if
// so, whether it resumed on that token.
func slotWait(p *Proc, q *cqs.Queue, from *atomic.Int64) (parked, onWakerToken bool) {
	bw := p.PrepareWait()
	if _, registered := q.Enqueue(bw); !registered {
		return false, false
	}
	p.CommitWait(bw)
	return true, int64(p.worker) == from.Load()
}

func slotPost(p *Proc, q *cqs.Queue, from *atomic.Int64) {
	from.Store(int64(p.worker))
	if h, oc := q.Resume(); oc == cqs.Woke {
		p.WakeNext(h.(*Waiter))
	}
}

// TestWakeSlotStaysOnToken: two strands on two workers that wake each
// other in turn resume on the waker's token at least nine times in ten.
// Each works 1 µs between its wake and its own wait: long enough for the
// other token's spinning thief to pop a shared-queue wakeup first (a
// quarter to most of them went across without the slot), far inside the
// spin budget a slot's owner is granted.
func TestWakeSlotStaysOnToken(t *testing.T) {
	const rounds = 2000
	rt := idleRuntime(t, 2, nil)
	ping, pong := cqs.NewQueue(), cqs.NewQueue()
	var pingFrom, pongFrom atomic.Int64
	var resumes, onToken atomic.Int64
	wait := func(p *Proc, q *cqs.Queue, from *atomic.Int64) {
		if parked, same := slotWait(p, q, from); parked {
			resumes.Add(1)
			if same {
				onToken.Add(1)
			}
		}
	}
	work := func() {
		for end := time.Now().Add(time.Microsecond); time.Now().Before(end); {
		}
	}
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(c api.Ctx) {
			p := c.(*Proc)
			for i := 0; i < rounds; i++ {
				wait(p, ping, &pingFrom)
				slotPost(p, pong, &pongFrom)
				work()
			}
		})
		p := c.(*Proc)
		for i := 0; i < rounds; i++ {
			slotPost(p, ping, &pingFrom)
			work()
			wait(p, pong, &pongFrom)
		}
		s.Sync()
	})
	n, same := resumes.Load(), onToken.Load()
	if n < rounds {
		t.Fatalf("%d parked waits over %d rounds: the ping-pong lost its premise", n, rounds)
	}
	if same*10 < n*9 {
		t.Errorf("%d of %d resumes on the waker's token, want at least 90%%", same, n)
	}
	assertWaitsSettled(t, rt)
	if err := rt.CheckIdle(); err != nil {
		t.Error(err)
	}
}

// TestWakeSlotTakenBeforeSleep: a waker fills its slot and then runs on
// for 20 ms without blocking. The other token's thief, roused by the
// wake, takes the slot once its spin budget is spent — well inside the
// 20 ms — instead of going back to sleep beside it.
func TestWakeSlotTakenBeforeSleep(t *testing.T) {
	rt := idleRuntime(t, 2, nil)
	q := cqs.NewQueue()
	var from atomic.Int64
	resumedOn := atomic.Int64{}
	resumedOn.Store(-1)
	var parksAtResume int64
	var waker int
	var inTime bool
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(c api.Ctx) {
			p := c.(*Proc)
			if parked, _ := slotWait(p, q, &from); !parked {
				t.Error("the wakee never parked")
			}
			parksAtResume = rt.Counters().ThiefParks
			resumedOn.Store(int64(p.worker))
		})
		p := c.(*Proc)
		// Wait until the wakee is parked and the other token's thief is
		// asleep — one park more than wakeups, so past its re-scan: any
		// park after the slot fill below is one the slot should prevent.
		var parks int64
		for {
			c := rt.Counters()
			if rt.blockedLive() == 1 && c.ThiefParks == c.ThiefWakeups+1 {
				parks = c.ThiefParks
				break
			}
			runtime.Gosched()
		}
		waker = p.worker
		slotPost(p, q, &from)
		for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
			if resumedOn.Load() >= 0 {
				inTime = true
			}
		}
		s.Sync()
		if parksAtResume != parks {
			t.Errorf("ThiefParks went %d -> %d while the slot was full", parks, parksAtResume)
		}
	})
	if !inTime {
		t.Fatal("the wakee did not resume within the waker's 20 ms")
	}
	if got := resumedOn.Load(); got == int64(waker) {
		t.Errorf("the wakee resumed on the waker's token %d, want the other one", got)
	}
	assertWaitsSettled(t, rt)
	if err := rt.CheckIdle(); err != nil {
		t.Error(err)
	}
}

// TestWakeSlotCheckIdle: an occupied slot on an idle runtime is a lost
// wakeup; CheckIdle names it and DumpState shows it.
func TestWakeSlotCheckIdle(t *testing.T) {
	rt := idleRuntime(t, 2, nil)
	rt.Run(func(api.Ctx) {})
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("idle runtime: %v", err)
	}
	rt.slots[1].next.Store(&Waiter{})
	err := rt.CheckIdle()
	if err == nil || !strings.HasPrefix(err.Error(), "wait-leak: slot 1") {
		t.Errorf("CheckIdle with slot 1 occupied = %v, want a wait-leak naming slot 1", err)
	}
	var b bytes.Buffer
	rt.DumpState(&b)
	if !strings.Contains(b.String(), "worker 0: deque size 0, next wakeup none") ||
		!strings.Contains(b.String(), "worker 1: deque size 0, next wakeup waiter 0x") {
		t.Errorf("DumpState does not show the slots:\n%s", b.String())
	}
	rt.slots[1].next.Store(nil)
	if err := rt.CheckIdle(); err != nil {
		t.Errorf("after clearing the slot: %v", err)
	}
}
