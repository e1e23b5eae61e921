package resilience

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/sched"
)

// hedgeVariants are the four runtime shapes of the paper's evaluation;
// the hedge-loser cancellation contract must hold on all of them.
func hedgeVariants() []sched.Config {
	var cfgs []sched.Config
	for _, name := range sched.Variants() {
		cfg, _ := sched.VariantConfig(name, 2)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// tailTask builds a task whose first invocation is slow (a cooperative
// poll loop, so a cancelled loser exits promptly) and whose later
// invocations return at once — the shape hedging exists for.
func tailTask(slow time.Duration) func(api.Ctx) {
	var calls atomic.Int32
	return func(c api.Ctx) {
		if calls.Add(1) > 1 {
			return
		}
		deadline := time.Now().Add(slow)
		for time.Now().Before(deadline) {
			if c.Err() != nil {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// drainQuiesce waits for every in-flight and queued submission —
// hedge losers included — to resolve, then returns the stats.
func drainQuiesce(t *testing.T, rt *sched.Runtime) sched.ServiceStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ss, ok := rt.ServiceStats()
		if !ok {
			t.Fatal("ServiceStats unavailable")
		}
		if ss.InFlight == 0 && ss.Queued == 0 {
			return ss
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never quiesced: %+v", ss)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHedgeWinsTail pins the point of hedging: a task with a fat tail
// resolves at hedge speed, not tail speed, and the slow loser is
// cancelled rather than leaked.
func TestHedgeWinsTail(t *testing.T) {
	rt := serveRT(t, 2)
	defer rt.Close()
	r := New(rt, Policy{
		MaxAttempts: 1,
		Hedge:       &HedgePolicy{MinDelay: 2 * time.Millisecond},
	})

	begin := time.Now()
	out, err := r.Do(context.Background(), tailTask(400*time.Millisecond), sched.SubmitOpts{})
	if err != nil {
		t.Fatalf("Do: %v (outcome %+v)", err, out)
	}
	if !out.Hedged || !out.HedgeWon {
		t.Fatalf("outcome %+v, want a hedge launched and winning", out)
	}
	if elapsed := time.Since(begin); elapsed > 200*time.Millisecond {
		t.Fatalf("Do took %v against a 400ms tail: the hedge did not win", elapsed)
	}
	ss := drainQuiesce(t, rt)
	if ss.Cancelled < 1 {
		t.Fatalf("Cancelled = %d after a lost primary, want >= 1: %+v", ss.Cancelled, ss)
	}
	if ss.Admitted != ss.Completed+ss.Panicked+ss.Cancelled+ss.Shed {
		t.Fatalf("service conservation violated: %+v", ss)
	}
}

// TestHedgeFastPathNoHedge pins the other side: a task faster than the
// hedge delay never launches a copy.
func TestHedgeFastPathNoHedge(t *testing.T) {
	rt := serveRT(t, 2)
	defer rt.Close()
	r := New(rt, Policy{
		MaxAttempts: 1,
		Hedge:       &HedgePolicy{MinDelay: time.Second},
	})
	out, err := r.Do(context.Background(), func(api.Ctx) {}, sched.SubmitOpts{})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if out.Hedged || out.Attempts != 1 {
		t.Fatalf("outcome %+v: an instant task must not be hedged", out)
	}
	ss := drainQuiesce(t, rt)
	if ss.Cancelled != 0 || ss.Admitted != 1 {
		t.Fatalf("stats %+v, want exactly one clean admission", ss)
	}
}

// TestHedgeLoserCancel is the leak gate of the hedging contract, run
// across all four runtime variants: every hedged call's loser must be
// cancelled and fully accounted — no leaked vessels, no leaked scopes,
// no stuck in-flight submissions — whether the loser was still queued
// (unlinked without running) or already running (cancelled
// cooperatively).
func TestHedgeLoserCancel(t *testing.T) {
	for _, cfg := range hedgeVariants() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rt := sched.MustNew(cfg)
			defer rt.Close()
			if err := rt.StartService(sched.ServiceConfig{QueueDepth: 64}); err != nil {
				t.Fatalf("StartService: %v", err)
			}
			r := New(rt, Policy{
				MaxAttempts: 2,
				Hedge:       &HedgePolicy{MinDelay: time.Millisecond},
			})

			const rounds = 8
			hedged := 0
			for i := 0; i < rounds; i++ {
				out, err := r.Do(context.Background(), tailTask(60*time.Millisecond), sched.SubmitOpts{})
				if err != nil {
					t.Fatalf("round %d: %v (outcome %+v)", i, err, out)
				}
				if out.Hedged {
					hedged++
				}
			}
			if hedged == 0 {
				t.Fatal("no round hedged: a 60ms tail against a 1ms delay must trigger hedges")
			}

			ss := drainQuiesce(t, rt)
			if ss.Cancelled < 1 {
				t.Fatalf("Cancelled = %d after %d hedged rounds, want >= 1: %+v", ss.Cancelled, hedged, ss)
			}
			if ss.Admitted != ss.Completed+ss.Panicked+ss.Cancelled+ss.Shed {
				t.Fatalf("service conservation violated: %+v", ss)
			}
			rt.Close()
			if err := rt.CheckIdle(); err != nil {
				t.Fatalf("a cancelled hedge loser leaked: %v", err)
			}
		})
	}
}

// TestHedgeWindowQuantile pins the delay computation: a warm window
// answers the requested quantile, clamped to the policy bounds.
func TestHedgeWindowQuantile(t *testing.T) {
	h := newHedgeWindow(HedgePolicy{Quantile: 0.9, MinDelay: time.Millisecond, MaxDelay: time.Second})
	if d := h.delay(); d != time.Millisecond {
		t.Fatalf("cold-window delay = %v, want MinDelay", d)
	}
	for i := 1; i <= 100; i++ {
		h.record(time.Duration(i) * time.Millisecond)
	}
	d := h.delay()
	if d < 85*time.Millisecond || d > 95*time.Millisecond {
		t.Fatalf("p90 of 1..100ms = %v, want ~90ms", d)
	}

	clamped := newHedgeWindow(HedgePolicy{Quantile: 0.9, MinDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})
	for i := 1; i <= 100; i++ {
		clamped.record(time.Duration(i) * time.Millisecond)
	}
	if d := clamped.delay(); d != 10*time.Millisecond {
		t.Fatalf("clamped delay = %v, want MaxDelay", d)
	}
}

// TestHedgeStormAccounting pins that service accounting is final the
// moment the gauges say idle. Rounds of concurrent hedged calls each
// leave a burst of cancelled losers winding down after the last Do has
// returned; a side goroutine hammers ServiceStats throughout and checks
// every snapshot taken while no Do (hence no Submit) was in progress:
// one that shows nothing queued and nothing in flight must already
// balance. It used not to — a finishing submission left the in-flight
// gauge before its outcome was tallied, a dispatched one left the queue
// gauge long before it entered the in-flight one, and the snapshot read
// the tallies before the gauges — which is how TestHedgeWinsTail came to
// read Cancelled = 0 right after InFlight hit 0.
func TestHedgeStormAccounting(t *testing.T) {
	rt := serveRT(t, 4)
	defer rt.Close()
	r := New(rt, Policy{
		MaxAttempts: 1,
		Hedge:       &HedgePolicy{MinDelay: 100 * time.Microsecond},
	})

	// A snapshot is quiet when every Do started before it had returned
	// and none started while it was taken.
	var started, finished, idleSeen atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.Gosched() // GOMAXPROCS may be 1
			fin := finished.Load()
			begun := started.Load()
			ss, _ := rt.ServiceStats()
			if begun != fin || started.Load() != begun || ss.Queued != 0 || ss.InFlight != 0 {
				continue
			}
			idleSeen.Add(1)
			if got := ss.Completed + ss.Panicked + ss.Cancelled + ss.Shed; got != ss.Admitted {
				t.Errorf("idle gauges over unsettled tallies: admitted %d, accounted %d: %+v", ss.Admitted, got, ss)
				return
			}
		}
	}()

	const rounds, callers = 40, 6
	for round := 0; round < rounds && !t.Failed(); round++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				defer finished.Add(1)
				if _, err := r.Do(context.Background(), tailTask(20*time.Millisecond), sched.SubmitOpts{}); err != nil {
					t.Errorf("Do: %v", err)
				}
			}()
		}
		wg.Wait()
		// The losers are still being cancelled: let the sampler watch
		// them drain until it has seen this round's idle snapshot.
		seen := idleSeen.Load()
		for deadline := time.Now().Add(10 * time.Second); idleSeen.Load() == seen && !t.Failed(); {
			if time.Now().After(deadline) {
				t.Fatal("the sampler never saw the service idle")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	close(stop)
	<-sampled
	if ss, _ := rt.ServiceStats(); ss.Cancelled == 0 {
		t.Fatalf("no hedge loser was ever cancelled: the storm lost its premise: %+v", ss)
	}
}
