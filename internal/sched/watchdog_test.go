package sched

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
)

// reports is a mutex-protected onStall sink.
type reports struct {
	mu  sync.Mutex
	got []WatchdogReport
}

func (c *reports) hook(r WatchdogReport) {
	c.mu.Lock()
	c.got = append(c.got, r)
	c.mu.Unlock()
}

func (c *reports) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *reports) first() WatchdogReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[0]
}

// runStuck runs root on rt in the background; the returned channel closes
// when Run returns.
func runStuck(rt *Runtime, root func(api.Ctx)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(root)
	}()
	return done
}

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

	var c reports
	wd := rt.StartWatchdog(10*time.Millisecond, 3, c.hook)
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

	if c.count() == 0 {
		t.Fatal("watchdog did not fire during the injected 500ms stall")
	}
	r := c.first()
	if r.Ticks < 3 {
		t.Errorf("report ticks = %d, want >= 3", r.Ticks)
	}
	if !strings.Contains(r.Dump, "tokens") {
		t.Errorf("dump missing token count:\n%s", r.Dump)
	}
	if !strings.Contains(r.Dump, "deque") {
		t.Errorf("dump missing deque sizes:\n%s", r.Dump)
	}
	if wd.Actions() != int64(c.count()) {
		t.Errorf("Actions() = %d, want %d", wd.Actions(), c.count())
	}
}

// TestWatchdogQuietOnHealthyRun: a progressing computation must not
// trigger stall reports.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	var fired atomic.Int64
	wd := rt.StartWatchdog(5*time.Millisecond, 4, func(WatchdogReport) { fired.Add(1) })
	defer wd.Stop()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 20) })
	if got != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", got)
	}
	// The runtime idles after the run; the work-outstanding gate must keep
	// the watchdog silent while we wait a few ticks.
	time.Sleep(40 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("watchdog fired %d times on a healthy run", n)
	}
}

// TestWatchdogFiresAfterStallTicks: a root strand blocked outside the
// scheduler stops all progress, and the report comes after exactly
// stallTicks ticks, naming the runtime and carrying the dump.
func TestWatchdogFiresAfterStallTicks(t *testing.T) {
	rt := MustNew(Config{Name: "static", Workers: 2})
	defer rt.Close()
	var c reports
	wd := rt.StartWatchdog(2*time.Millisecond, 3, c.hook)
	defer wd.Stop()
	release := make(chan struct{})
	done := runStuck(rt, func(api.Ctx) { <-release })
	awaitCond(t, "a stall report", func() bool { return c.count() >= 1 })
	close(release)
	<-done

	r := c.first()
	if r.Name != "static" {
		t.Errorf("report name = %q", r.Name)
	}
	if r.Ticks != 3 || r.Stalled != 6*time.Millisecond {
		t.Errorf("ticks = %d, stalled = %v; want 3 and 6ms", r.Ticks, r.Stalled)
	}
	if !strings.Contains(r.Dump, "tokensLeft=2") {
		t.Errorf("dump = %q, want the live run's token count", r.Dump)
	}
	if !strings.Contains(r.String(), "stalled for") {
		t.Errorf("String() = %q", r.String())
	}
	if wd.Actions() != 1 {
		t.Errorf("Actions() = %d, want 1", wd.Actions())
	}
}

// TestWatchdogQuietWhileProgressing: a long run that keeps spawning never
// looks stalled, however fine the tick.
func TestWatchdogQuietWhileProgressing(t *testing.T) {
	rt := MustNew(Config{Workers: 2, Spawn: SpawnEager})
	defer rt.Close()
	var c reports
	wd := rt.StartWatchdog(2*time.Millisecond, 3, c.hook)
	defer wd.Stop()
	rt.Run(func(ctx api.Ctx) {
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
			fib(ctx, 10)
		}
	})
	if n := c.count(); n != 0 {
		t.Fatalf("fired %d times while progressing", n)
	}
}

// TestWatchdogGatedWhenIdle: an idle runtime's progress is static, and no
// work is outstanding, so nothing is reported.
func TestWatchdogGatedWhenIdle(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	var c reports
	wd := rt.StartWatchdog(2*time.Millisecond, 3, c.hook)
	time.Sleep(50 * time.Millisecond)
	wd.Stop()
	if n := c.count(); n != 0 {
		t.Fatalf("fired %d times while idle", n)
	}
}

// TestWatchdogQuietOnIdleService: a service is one long run, but with
// nothing queued or in flight its sleeping tokens are not a stall.
func TestWatchdogQuietOnIdleService(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	var c reports
	wd := rt.StartWatchdog(5*time.Millisecond, 4, c.hook)
	defer wd.Stop()
	time.Sleep(200 * time.Millisecond)
	if n := c.count(); n != 0 {
		t.Fatalf("fired %d times on an idle service:\n%s", n, c.first())
	}
}

// TestWatchdogOncePerEpisode: a continuing stall emits exactly one
// report; resumed progress re-arms the detector for the next stall.
func TestWatchdogOncePerEpisode(t *testing.T) {
	rt := MustNew(Config{Workers: 2, Spawn: SpawnEager})
	defer rt.Close()
	var c reports
	wd := rt.StartWatchdog(2*time.Millisecond, 2, c.hook)
	defer wd.Stop()
	step := make(chan struct{})
	done := runStuck(rt, func(ctx api.Ctx) {
		<-step
		s := ctx.Scope()
		s.Spawn(func(api.Ctx) {})
		s.Sync()
		<-step
	})
	awaitCond(t, "the first episode", func() bool { return c.count() >= 1 })
	time.Sleep(20 * time.Millisecond) // the stall continues: no second report
	if n := c.count(); n != 1 {
		t.Errorf("stall episode reported %d times, want 1", n)
	}
	step <- struct{}{} // progress, then a second stall
	awaitCond(t, "the second episode", func() bool { return c.count() >= 2 })
	close(step)
	<-done
}

// TestWatchdogStopIdempotent: Stop may be called twice, and after Close.
func TestWatchdogStopIdempotent(t *testing.T) {
	rt := NewNowa(1)
	wd := rt.StartWatchdog(0, 0, func(WatchdogReport) {})
	wd.Stop()
	wd.Stop()
	again := rt.StartWatchdog(0, 0, func(WatchdogReport) {})
	rt.Close()
	again.Stop()
	rt.StartWatchdog(0, 0, nil).Stop() // armed after Close: never runs
}
