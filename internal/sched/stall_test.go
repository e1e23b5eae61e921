package sched

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/chaos"
	"nowa/internal/deque"
	"nowa/internal/trace"
)

// stallCfg is the baseline stall-recovery configuration the tests use:
// short threshold so seizures land well inside the planted stalls.
func stallCfg(workers int) Config {
	return Config{
		Name:           "nowa-stall",
		Workers:        workers,
		Deque:          deque.CL,
		Join:           WaitFree,
		Seed:           7,
		StallThreshold: 2 * time.Millisecond,
	}
}

// TestStallSlotSizing pins the array-sizing contract: recovery off means
// exactly Workers slots (and zeroed stall stats), recovery on adds slot
// Workers+w for each worker w's supplement.
func TestStallSlotSizing(t *testing.T) {
	plain := NewNowa(4)
	defer plain.Close()
	if got := len(plain.slots); got != 4 {
		t.Fatalf("%d slots without stall recovery, want 4", got)
	}
	st := plain.Stats()
	if st.WorkersSupplemented != 0 || st.SupplementsRetired != 0 {
		t.Fatalf("stall stats nonzero without recovery: %+v", st)
	}

	armed := MustNew(stallCfg(4))
	defer armed.Close()
	if got := len(armed.slots); got != 8 {
		t.Fatalf("%d slots with recovery armed, want 8 (2×Workers)", got)
	}
}

// stallTickers counts the goroutines startStallTicker created and that
// have not exited. It matches the creation line, which the dump prints
// even for a goroutine that has not run yet.
func stallTickers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by nowa/internal/sched.(*Runtime).startStallTicker ")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// awaitNoTicker fails the test unless the stall tickers are gone within
// a second. Stop joins the ticker goroutine before it returns; the
// second covers only the instant the goroutine takes to leave the stack
// after signalling its exit.
func awaitNoTicker(t *testing.T, when string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); stallTickers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d stall tickers %s, want 0", stallTickers(), when)
		}
	}
}

// TestStallTickerPerRun: stall recovery's ticker lives for exactly one
// run. A plain runtime runs none. A stall-armed batch runtime runs one
// while Run is live and none once Run returns, so none between runs. A
// service's run is its lifetime: a stall-armed service runs one until
// Close returns, and is idle afterwards.
func TestStallTickerPerRun(t *testing.T) {
	awaitNoTicker(t, "before the test")
	plain := NewNowa(2)
	defer plain.Close()
	live := -1
	plain.Run(func(api.Ctx) { live = stallTickers() })
	if live != 0 {
		t.Fatalf("%d stall tickers during a run without stall recovery", live)
	}

	rt := MustNew(stallCfg(2))
	defer rt.Close()
	for run := 1; run <= 2; run++ {
		rt.Run(func(api.Ctx) { live = stallTickers() })
		if live != 1 {
			t.Fatalf("run %d: %d stall tickers while Run is live, want 1", run, live)
		}
		awaitNoTicker(t, fmt.Sprintf("after run %d returned", run))
	}

	svc := MustNew(stallCfg(2))
	if err := svc.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	sub, err := svc.SubmitCtxOpts(nil, func(api.Ctx) {}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := stallTickers(); n != 1 {
		t.Fatalf("%d stall tickers while serving, want 1", n)
	}
	svc.Close()
	awaitNoTicker(t, "after Close")
	if err := svc.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestStallSupplementBatch plants a mid-strand stall in a batch Run —
// one spawned child sleeps far past the threshold while the rest of the
// computation keeps publishing work — and asserts the full seize →
// supplement → retire cycle: the stalled token was seized, at least one
// supplement dispatched and every supplement retired, with the token
// and vessel conservation invariants intact afterwards.
func TestStallSupplementBatch(t *testing.T) {
	cfg := stallCfg(2)
	// Eager spawning gives the sleeper its own token immediately (a lazy
	// first spawn would sleep inline before any continuation is
	// published, leaving nothing runnable to justify a seizure).
	cfg.Spawn = SpawnEager
	rt := MustNew(cfg)
	defer rt.Close()

	var got int
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(api.Ctx) { time.Sleep(100 * time.Millisecond) })
		deadline := time.Now().Add(80 * time.Millisecond)
		for time.Now().Before(deadline) {
			got = fib(c, 16)
		}
		s.Sync()
	})
	if want := fibSerial(16); got != want {
		t.Fatalf("fib(16) = %d under stall recovery, want %d", got, want)
	}

	st := rt.Stats()
	if st.WorkersSupplemented < 1 {
		t.Fatalf("WorkersSupplemented = %d, want >= 1 (planted a 100ms stall against a 2ms threshold)", st.WorkersSupplemented)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("not idle after seize/supplement/retire cycles: %v", err)
	}
	cnt := rt.Counters()
	if err := cnt.CheckQuiescent(); err != nil {
		t.Fatalf("counter conservation violated with supplements: %v", err)
	}
}

// TestStallReseize runs two full cycles on one worker in one run: the
// worker stalls, is supplemented, returns, and its supplement retires;
// then it stalls again and is supplemented again on the same slot. One
// worker makes the strand-to-token mapping deterministic: each sleeper
// runs on token 0 (child-first), the parent's continuation waits in
// deque 0 as the runnable work that makes the stall seizable, and slot 1
// is the only supplement slot there is.
func TestStallReseize(t *testing.T) {
	cfg := stallCfg(1)
	cfg.Spawn = SpawnEager
	rt := MustNew(cfg)
	defer rt.Close()

	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		for range 2 {
			s.Spawn(func(api.Ctx) { time.Sleep(60 * time.Millisecond) })
			s.Sync()
		}
	})
	st := rt.Stats()
	if st.WorkersSupplemented != 2 || st.SupplementsRetired != 2 {
		t.Fatalf("supplemented=%d retired=%d, want 2 and 2 (two 60ms stalls against a 2ms threshold)",
			st.WorkersSupplemented, st.SupplementsRetired)
	}
	if n := rt.rec.Worker(1)[trace.FailedSteals].Load(); n == 0 {
		t.Fatal("slot 1 never ran a steal loop: the supplements were not on worker 0's slot")
	}
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("not idle after two seize/supplement/retire cycles: %v", err)
	}
}

// TestStallDumpState prints a dump from inside a seizure: the one
// worker sleeps in a spawned child, the supplement on slot 1 steals the
// parent's continuation, and the continuation dumps while the stall
// lasts. Every base and supplement slot must have its line, and so must
// the stall counts, the seized worker's stall word and the waits.
func TestStallDumpState(t *testing.T) {
	cfg := stallCfg(1)
	cfg.Spawn = SpawnEager
	rt := MustNew(cfg)
	defer rt.Close()

	var dump strings.Builder
	seized := false
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(api.Ctx) { time.Sleep(60 * time.Millisecond) })
		// On slot 1 the supplement stole this continuation while the
		// child still holds token 0: worker 0 is seized.
		if seized = c.(*Proc).worker == 1; seized {
			rt.DumpState(&dump)
		}
		s.Sync()
	})
	if !seized {
		t.Fatal("the continuation ran only after the stall: no supplement stole it")
	}
	out := dump.String()
	for _, want := range []string{
		"workers=1 ",
		"\n  worker 0: deque size ",
		"\n  supplement slot 0 (worker 1): deque size ",
		"\n  stall recovery: supplemented=1 retired=0 victimSlots=2\n",
		"\n  worker 0 stall word: 1 (1=supplemented 2=retiring) heartbeat=",
		"\n  waits: blocked=0 resumed=0 aborted=0 live=0 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q:\n%s", want, out)
		}
	}
}

// TestStallServiceRecovery is the head-of-line-blocking rescue on a
// single-worker service: a submission stalls the only base token, so
// without supplementation no token is left to take the queued
// submissions behind it. With recovery armed, the supplement takes them
// itself, and the quick submissions all complete while the stalled one
// is still asleep.
func TestStallServiceRecovery(t *testing.T) {
	cfg := stallCfg(1)
	cfg.Spawn = SpawnEager
	rt := MustNew(cfg)
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{QueueDepth: 64}); err != nil {
		t.Fatalf("StartService: %v", err)
	}

	stalled, err := rt.SubmitCtxOpts(nil, func(api.Ctx) { time.Sleep(150 * time.Millisecond) }, SubmitOpts{})
	if err != nil {
		t.Fatalf("Submit stall task: %v", err)
	}
	const quick = 10
	subs := make([]*Submission, quick)
	for i := range subs {
		s, err := rt.SubmitCtxOpts(nil, func(api.Ctx) {}, SubmitOpts{})
		if err != nil {
			t.Fatalf("Submit quick task %d: %v", i, err)
		}
		subs[i] = s
	}
	for i, s := range subs {
		select {
		case <-s.Done():
			if err := s.Err(); err != nil {
				t.Fatalf("quick task %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("quick task %d still queued: no supplement took it", i)
		}
	}
	select {
	case <-stalled.Done():
		t.Fatal("stall task finished before the quick tasks were checked; the test lost its stall window")
	default:
	}
	if err := stalled.Wait(); err != nil {
		t.Fatalf("stall task: %v", err)
	}

	st := rt.Stats()
	if st.WorkersSupplemented < 1 {
		t.Fatalf("supplemented=%d, want >= 1", st.WorkersSupplemented)
	}
	rt.Close()
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("not idle after Close: %v", err)
	}
	ss, ok := rt.ServiceStats()
	if !ok {
		t.Fatal("ServiceStats unavailable after Close")
	}
	if ss.Admitted != ss.Completed+ss.Panicked+ss.Cancelled+ss.Shed {
		t.Fatalf("service conservation violated: %+v", ss)
	}
}

// TestStallRetireUnderBacklog keeps a single-worker service's queue
// non-empty across two stalls of its one base token. Once the stalled
// worker returns, its supplement must retire although submissions are
// still queued — it used to take the next one before it looked at its
// stall word, so a standing backlog kept it live for good — and the
// worker's second stall must be supplemented again on the freed slot.
func TestStallRetireUnderBacklog(t *testing.T) {
	rt := MustNew(stallCfg(1))
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{QueueDepth: 256}); err != nil {
		t.Fatal(err)
	}
	stall := func() *Submission {
		s, err := rt.SubmitCtxOpts(nil, func(api.Ctx) { time.Sleep(40 * time.Millisecond) }, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	waitFor := func(what string, cond func(Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(rt.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, rt.Stats())
			}
		}
	}

	first := stall()
	// The backlog: 500µs tasks, topped up to 32 queued — milliseconds of
	// work ahead of every token — until stop closes.
	stop, fed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ss, _ := rt.ServiceStats(); ss.Queued >= 32 {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			_, err := rt.SubmitCtxOpts(nil, func(api.Ctx) {
				for t0 := time.Now(); time.Since(t0) < 500*time.Microsecond; {
				}
			}, SubmitOpts{})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-fed
	}()

	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor("the first supplement to retire under the backlog", func(st Stats) bool {
		return st.WorkersSupplemented >= 1 && st.SupplementsRetired >= 1
	})
	if err := stall().Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor("the second stall to be supplemented", func(st Stats) bool { return st.WorkersSupplemented >= 2 })
}

// TestStallRetireFlagSeenAtPark closes the window between a supplement's
// last stallStealCheck and its sleep: its worker returning in there, it
// used to sleep through the retire phase until somebody else's spawn woke
// it. The test stands in for the supplement's thief on an idle service so
// it decides where the thief is when the word moves: past the check that
// found nothing, not yet holding a ticket — the wake that comes with the
// return misses it. The park that follows must be declined, and the
// supplement must retire with no submission to help it.
func TestStallRetireFlagSeenAtPark(t *testing.T) {
	rt := MustNew(stallCfg(2))
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	awaitCond(t, "both of the service's tokens to park", func() bool {
		return rt.rec.Worker(0)[trace.ThiefParks].Load() == 1 && rt.rec.Worker(1)[trace.ThiefParks].Load() == 1
	})
	// Arm slot Workers+0 for token 0 the way seizeWorker does, minus the
	// dispatch: the token sleeps on the idle queue, so nothing moves the
	// stall word behind the test's back.
	ws := rt.cfg.Workers
	rt.tokensLeft.Add(1)
	rt.slots[0].state.CompareAndSwap(wsHealthy, wsSupplemented)
	rt.victimHi.Store(int32(ws + 1))
	rt.supplemented.Add(1)
	v := &vessel{rt: rt}
	v.pk.init()
	v.proc = Proc{rt: rt, v: v, worker: ws}

	if rt.stallStealCheck(ws) {
		t.Fatal("retire phase seen before the worker returned")
	}
	rt.stallReentry(0)
	if st := rt.slots[0].state.Load(); st != wsRetiring {
		t.Fatalf("stall word %d after the worker's re-entry, want retiring", st)
	}
	retired := rt.supRetired.Load()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.parkThief(&v.proc)
		if rt.stallStealCheck(ws) { // the steal loop's next pass
			rt.retireSupplement(ws)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the flagged supplement went to sleep")
	}
	if got := rt.supRetired.Load(); got != retired+1 {
		t.Fatalf("supRetired = %d, want %d", got, retired+1)
	}
	if n := rt.rec.Worker(ws)[trace.ThiefParks].Load(); n != 0 {
		t.Fatalf("the supplement parked %d times", n)
	}
	rt.Close()
	if err := rt.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestStallChaosConservation soaks the seize/supplement/retire machinery
// under the StallWorker injection: random strands pin their tokens at
// the finish window while recovery keeps supplementing, and every
// conservation invariant must hold at the end of each run.
func TestStallChaosConservation(t *testing.T) {
	cfg := stallCfg(4)
	cfg.Chaos = &chaos.Chaos{StallWorker: 48, StallForUS: 4000}
	rt := MustNew(cfg)
	defer rt.Close()

	for round := 0; round < 3; round++ {
		var got int
		rt.Run(func(c api.Ctx) { got = fib(c, 18) })
		if want := fibSerial(18); got != want {
			t.Fatalf("round %d: fib(18) = %d, want %d", round, got, want)
		}
		if err := rt.CheckIdle(); err != nil {
			t.Fatalf("round %d: not idle: %v", round, err)
		}
		cnt := rt.Counters()
		if err := cnt.CheckQuiescent(); err != nil {
			t.Fatalf("round %d: counter conservation violated: %v", round, err)
		}
	}
}

// TestStallCompletedEWMAExported pins the ServiceStats export: after a
// few completions the smoothed inter-completion interval is readable
// without triggering a rejection.
func TestStallCompletedEWMAExported(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatalf("StartService: %v", err)
	}
	for i := 0; i < 8; i++ {
		sub, err := rt.SubmitCtxOpts(nil, func(api.Ctx) { time.Sleep(time.Millisecond) }, SubmitOpts{})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if err := sub.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	ss, ok := rt.ServiceStats()
	if !ok {
		t.Fatal("ServiceStats unavailable")
	}
	if ss.CompletionEWMA <= 0 {
		t.Fatalf("CompletionEWMA = %v after sequential millisecond tasks, want > 0", ss.CompletionEWMA)
	}
}
