package sched

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/watchdog"
)

// TestWatchdogDetectsInjectedStall wires a watchdog to a runtime whose
// chaos hook injects a one-shot 500ms stall before a Sync, and asserts
// the watchdog fires with a dump that carries the diagnostic state
// (token count, per-worker deque sizes). The run itself still completes:
// the stall is a delay, not a deadlock.
func TestWatchdogDetectsInjectedStall(t *testing.T) {
	rt := MustNew(Config{
		Workers: 2,
		Chaos:   &Chaos{Seed: 1, SyncStallUS: 500_000},
	})
	defer rt.Close()

	var mu sync.Mutex
	var reports []watchdog.Report
	wd, err := rt.StartWatchdog(10*time.Millisecond, 3, func(r watchdog.Report) {
		mu.Lock()
		reports = append(reports, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()

	var sum int
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		var a, b int
		s.Spawn(func(api.Ctx) { a = 1 })
		b = 2
		s.Sync() // chaosPreSync injects the one-shot stall here
		sum = a + b
	})
	if sum != 3 {
		t.Fatalf("sum = %d, want 3 (stalled run must still complete)", sum)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("watchdog did not fire during the injected 500ms stall")
	}
	r := reports[0]
	if r.Ticks < 3 {
		t.Errorf("report ticks = %d, want >= 3", r.Ticks)
	}
	if !strings.Contains(r.Dump, "tokens") {
		t.Errorf("dump missing token count:\n%s", r.Dump)
	}
	if !strings.Contains(r.Dump, "deque") {
		t.Errorf("dump missing deque sizes:\n%s", r.Dump)
	}
	if wd.Fired() != int64(len(reports)) {
		t.Errorf("Fired() = %d, want %d", wd.Fired(), len(reports))
	}
}

// TestWatchdogQuietOnHealthyRun: a progressing computation must not
// trigger stall reports.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	var fired atomic.Int64
	wd, err := rt.StartWatchdog(5*time.Millisecond, 4, func(watchdog.Report) { fired.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()
	var fib func(c api.Ctx, n int) int
	fib = func(c api.Ctx, n int) int {
		if n < 2 {
			return n
		}
		var a int
		s := c.Scope()
		s.Spawn(func(c api.Ctx) { a = fib(c, n-1) })
		b := fib(c, n-2)
		s.Sync()
		return a + b
	}
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 20) })
	if got != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", got)
	}
	// The runtime idles after the run; Active gating must keep the
	// watchdog silent while we wait a few ticks.
	time.Sleep(40 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("watchdog fired %d times on a healthy run", n)
	}
}
