package childsteal

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/trace"
)

// The idle protocol (workerLoop, park, Spawn's wake): an idle worker
// yields spinBeforePark times, then sleeps on the idle queue until a push
// wakes it or the Run ends.

// awaitCond polls cond for up to two seconds.
func awaitCond(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		runtime.Gosched()
	}
	return cond()
}

// TestIdleComparatorStopsCounting: while the root runs serially, every
// other worker of every row falls asleep — not polling on a timer — so
// the failed-take tally stops moving.
func TestIdleComparatorStopsCounting(t *testing.T) {
	const workers = 3
	for _, rt := range rows(t, workers) {
		t.Run(rt.Name(), func(t *testing.T) {
			var parked bool
			var before, after trace.Counters
			rt.Run(func(api.Ctx) {
				parked = awaitCond(func() bool { return rt.Counters().ThiefParks >= workers-1 })
				before = rt.Counters()
				for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
					runtime.Gosched()
				}
				after = rt.Counters()
			})
			if !parked {
				t.Fatalf("ThiefParks = %d after 2 s of a serial root, want %d", before.ThiefParks, workers-1)
			}
			if after.FailedSteals != before.FailedSteals {
				t.Errorf("idle workers still poll: FailedSteals %d -> %d over 50 ms", before.FailedSteals, after.FailedSteals)
			}
			if c := rt.Counters(); c.ThiefWakeups != c.ThiefParks {
				t.Errorf("parks=%d wakeups=%d; want every park woken by the end of the Run", c.ThiefParks, c.ThiefWakeups)
			}
		})
	}
}

// TestIdleComparatorSpawnWakes: once every other worker sleeps, one Spawn
// from the root wakes a sleeper, which runs the child while the root
// waits outside Sync.
func TestIdleComparatorSpawnWakes(t *testing.T) {
	const workers = 3
	for _, rt := range rows(t, workers) {
		t.Run(rt.Name(), func(t *testing.T) {
			var ranOn atomic.Int64
			ranOn.Store(-1)
			rt.Run(func(c api.Ctx) {
				if !awaitCond(func() bool { return rt.Counters().ThiefParks == workers-1 }) {
					t.Errorf("ThiefParks = %d, want %d before the spawn", rt.Counters().ThiefParks, workers-1)
					return
				}
				s := c.Scope()
				s.Spawn(func(c api.Ctx) { ranOn.Store(int64(c.(*ctx).worker)) })
				awaitCond(func() bool { return ranOn.Load() >= 0 })
				s.Sync()
			})
			if w := ranOn.Load(); w < 1 {
				t.Errorf("the child ran on worker %d, want a woken one (1..%d)", w, workers-1)
			}
		})
	}
}
