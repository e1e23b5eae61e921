package nowa

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/sched"
)

// testFib is the usual fork/join fibonacci, used to prove a runtime is
// still healthy after a cancelled run.
func testFib(c Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a int
	s := c.Scope()
	s.Spawn(func(c Ctx) { a = testFib(c, n-1) })
	b := testFib(c, n-2)
	s.Sync()
	return a + b
}

// cancelRuntimes returns every variant plus the serial elision, each
// paired with a cleanup.
func cancelRuntimes(t *testing.T) map[string]Runtime {
	t.Helper()
	rts := map[string]Runtime{"serial": Serial()}
	for _, v := range Variants() {
		rts[v.String()] = New(v, 4)
	}
	return rts
}

// TestCancelAlreadyCancelledCtx: RunCtx with an already-cancelled context
// must not run the root at all, must return context.Canceled, and must
// leave the runtime reusable.
func TestCancelAlreadyCancelledCtx(t *testing.T) {
	for name, rt := range cancelRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ran := false
			err := rt.RunCtx(ctx, func(c Ctx) { ran = true })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran {
				t.Fatal("root ran under an already-cancelled context")
			}
			// The runtime must still work.
			var got int
			rt.Run(func(c Ctx) { got = testFib(c, 12) })
			if got != 144 {
				t.Fatalf("post-cancel Run: fib(12) = %d, want 144", got)
			}
		})
	}
}

// TestCancelMidFlightDrains: cancelling mid-run must drain every started
// strand (fully-strict), return context.Canceled, degrade later Spawns to
// inline execution, and leave the runtime reusable with zero tokens lost.
func TestCancelMidFlightDrains(t *testing.T) {
	for name, rt := range cancelRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var finished atomic.Int64
			err := rt.RunCtx(ctx, func(c Ctx) {
				s := c.Scope()
				for i := 0; i < 100; i++ {
					if i == 30 {
						cancel()
					}
					s.Spawn(func(Ctx) { finished.Add(1) })
				}
				s.Sync()
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Fully-strict drain: every spawned strand completed, whether
			// it ran through the scheduler or inline after cancellation.
			if got := finished.Load(); got != 100 {
				t.Fatalf("finished = %d, want 100 (cancel must drain, not drop)", got)
			}
			if srt, ok := rt.(*sched.Runtime); ok {
				if left := srt.DebugTokensLeft(); left != 0 {
					t.Fatalf("tokensLeft = %d after cancelled run, want 0", left)
				}
				// Spawns after the cancel at i==30 (Cancelled latches
				// immediately) run inline: 100-30 = 70. Counters are
				// cumulative, so read them before the reuse run below.
				if got := srt.Counters().InlineSpawns; got != 70 {
					t.Fatalf("InlineSpawns = %d, want 70", got)
				}
			}
			var got int
			rt.Run(func(c Ctx) { got = testFib(c, 12) })
			if got != 144 {
				t.Fatalf("post-cancel Run: fib(12) = %d, want 144", got)
			}
		})
	}
}

// TestCancelDeadline: a run under context.WithTimeoutCause must surface
// context.DeadlineExceeded once the root observes the deadline, with
// the timeout's cause as context.Cause, and the runtime stays reusable.
func TestCancelDeadline(t *testing.T) {
	for name, rt := range cancelRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			errTooSlow := errors.New("run too slow")
			ctx, cancel := context.WithTimeoutCause(context.Background(), 20*time.Millisecond, errTooSlow)
			defer cancel()
			err := rt.RunCtx(ctx, func(c Ctx) {
				for c.Err() == nil {
					time.Sleep(time.Millisecond)
				}
			})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if cause := context.Cause(ctx); cause != errTooSlow {
				t.Fatalf("context.Cause = %v, want the timeout's cause", cause)
			}
			var got int
			rt.Run(func(c Ctx) { got = testFib(c, 12) })
			if got != 144 {
				t.Fatalf("post-timeout Run: fib(12) = %d, want 144", got)
			}
		})
	}
}

// TestCancelForEarlyExit: the For combinator must stop descending into
// unstarted subranges once the run is cancelled.
func TestCancelForEarlyExit(t *testing.T) {
	rt := New(VariantNowa, 4)
	defer Close(rt)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited atomic.Int64
	err := rt.RunCtx(ctx, func(c Ctx) {
		For(c, 0, 100000, 10, func(c Ctx, i int) {
			if i == 0 {
				cancel()
			}
			visited.Add(1)
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := visited.Load(); got >= 50000 {
		t.Fatalf("visited %d of 100000 iterations after immediate cancel; early exit not effective", got)
	}
}

// TestCancelDoneChannel: Ctx.Done is nil under a plain Run and closes on
// cancellation under RunCtx.
func TestCancelDoneChannel(t *testing.T) {
	rt := New(VariantNowa, 2)
	defer Close(rt)
	rt.Run(func(c Ctx) {
		if c.Done() != nil {
			t.Error("Done() != nil under plain Run")
		}
		if c.Err() != nil {
			t.Errorf("Err() = %v under plain Run", c.Err())
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := rt.RunCtx(ctx, func(c Ctx) {
		if c.Done() == nil {
			t.Error("Done() == nil under RunCtx")
		}
		select {
		case <-c.Done():
			t.Error("Done() closed before cancellation")
		default:
		}
		cancel()
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Error("Done() did not close after cancellation")
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelStartsNoWatcher: a run under a live cancellable context
// starts no goroutine a plain Run does not — the wake that rouses parked
// thieves on cancellation is a context.AfterFunc, not a watcher — and a
// cancel mid-run still wakes the parked thief, which retires its token
// while the root strand is still running.
func TestCancelStartsNoWatcher(t *testing.T) {
	rt := New(VariantNowa, 2)
	defer Close(rt)
	srt := rt.(*sched.Runtime)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	count := func(run func(root func(Ctx))) (n int) {
		run(func(Ctx) { n = runtime.NumGoroutine() })
		return n
	}
	plainRun := func(root func(Ctx)) { rt.Run(root) }
	ctxRun := func(root func(Ctx)) {
		if err := rt.RunCtx(ctx, root); err != nil {
			t.Fatal(err)
		}
	}
	count(plainRun) // the run's vessels exist from here on
	settled := 0
	for attempt := 0; attempt < 20 && settled < 3; attempt++ {
		// Goroutines other tests left behind may still be exiting: only a
		// reading bracketed by two equal plain ones counts.
		before, live, after := count(plainRun), count(ctxRun), count(plainRun)
		if before != after {
			continue
		}
		settled++
		if live != before {
			t.Fatalf("%d goroutines under RunCtx, %d under Run: cancellation started a watcher", live, before)
		}
	}
	if settled < 3 {
		t.Fatal("the goroutine count did not settle")
	}

	parks := srt.Counters().ThiefParks
	err := rt.RunCtx(ctx, func(c Ctx) {
		if waitFor(t, "the idle token to park", func() bool { return srt.Counters().ThiefParks > parks }) {
			cancel()
			waitFor(t, "the woken thief to retire", func() bool { return srt.DebugTokensLeft() == 1 })
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := srt.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to five seconds and reports whether it
// held; it fails the test otherwise. Callable from a strand.
func waitFor(t *testing.T, what string, cond func() bool) bool {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return false
		}
	}
	return true
}
