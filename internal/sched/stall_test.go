package sched

import (
	"testing"
	"time"

	"nowa/internal/api"
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
// exactly Workers slots (and zeroed stall stats), recovery on adds one
// extended slot per possible supplement.
func TestStallSlotSizing(t *testing.T) {
	plain := NewNowa(4)
	defer plain.Close()
	if got := plain.DebugSlots(); got != 4 {
		t.Fatalf("DebugSlots = %d without stall recovery, want 4", got)
	}
	st := plain.Stats()
	if st.WorkersSeized != 0 || st.WorkersSupplemented != 0 || st.SupplementsRetired != 0 {
		t.Fatalf("stall stats nonzero without recovery: %+v", st)
	}

	armed := MustNew(stallCfg(4))
	defer armed.Close()
	if got := armed.DebugSlots(); got != 8 {
		t.Fatalf("DebugSlots = %d with recovery armed, want 8 (Workers + MaxSupplements default)", got)
	}

	capped := MustNew(func() Config { c := stallCfg(4); c.MaxSupplements = 1; return c }())
	defer capped.Close()
	if got := capped.DebugSlots(); got != 5 {
		t.Fatalf("DebugSlots = %d with MaxSupplements=1, want 5", got)
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
	if st.WorkersSeized < 1 {
		t.Fatalf("WorkersSeized = %d, want >= 1 (planted a 100ms stall against a 2ms threshold)", st.WorkersSeized)
	}
	if st.WorkersSupplemented < 1 {
		t.Fatalf("WorkersSupplemented = %d, want >= 1", st.WorkersSupplemented)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("not idle after seize/supplement/retire cycles: %v", err)
	}
	cnt := rt.Counters()
	if err := cnt.CheckQuiescent(); err != nil {
		t.Fatalf("counter conservation violated with supplements: %v", err)
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

	stalled, err := rt.Submit(func(api.Ctx) { time.Sleep(150 * time.Millisecond) }, SubmitOpts{})
	if err != nil {
		t.Fatalf("Submit stall task: %v", err)
	}
	const quick = 10
	subs := make([]*Submission, quick)
	for i := range subs {
		s, err := rt.Submit(func(api.Ctx) {}, SubmitOpts{})
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
	if st.WorkersSeized < 1 || st.WorkersSupplemented < 1 {
		t.Fatalf("seized=%d supplemented=%d, want both >= 1", st.WorkersSeized, st.WorkersSupplemented)
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

// TestStallRetireFlagSeenAtPark closes the window between a supplement's
// last stallStealCheck and its sleep: flagged to retire in there, it used
// to sleep through the flag until somebody else's spawn woke it. The test
// stands in for the supplement's thief on an idle service so it decides
// where the thief is when the flag lands: past the check that found
// nothing, not yet holding a ticket — the wake that comes with the flag
// misses it. The park that follows must be declined, and the supplement
// must retire with no submission to help it.
func TestStallRetireFlagSeenAtPark(t *testing.T) {
	rt := MustNew(stallCfg(2))
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	awaitCond(t, "both of the service's tokens to park", func() bool {
		return rt.rec.Worker(0)[trace.ThiefParks].Load() == 1 && rt.rec.Worker(1)[trace.ThiefParks].Load() == 1
	})
	// Arm slot 0 for token 0 the way seizeWorker does, minus the dispatch:
	// the token sleeps on the idle queue, so nothing re-enters the health
	// word behind the test's back.
	ws := rt.cfg.Workers
	rt.wstate[0].state.CompareAndSwap(wsHealthy, wsSeized)
	rt.wstate[0].state.CompareAndSwap(wsSeized, wsSupplemented)
	rt.tokensLeft.Add(1)
	rt.sup[0].watch.Store(0)
	rt.sup[0].state.CompareAndSwap(supIdle, supArmed)
	rt.victimHi.Store(int32(ws + 1))
	rt.supplemented.Add(1)
	v := &vessel{rt: rt}
	v.pk.init()
	v.proc = Proc{rt: rt, v: v, worker: ws}

	if rt.stallStealCheck(ws) {
		t.Fatal("retire flag seen before it was set")
	}
	rt.seizedReentry(0)
	rt.retireRecoveredSupplements()
	if st := rt.sup[0].state.Load(); st != supRetiring {
		t.Fatalf("slot state %d after the worker's re-entry, want retiring", st)
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
	cfg.Chaos = &Chaos{StallWorker: 48, StallForUS: 4000}
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
		sub, err := rt.Submit(func(api.Ctx) { time.Sleep(time.Millisecond) }, SubmitOpts{})
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
