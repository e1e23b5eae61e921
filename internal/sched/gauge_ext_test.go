package sched_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"nowa"
	"nowa/internal/api"
	"nowa/internal/deque"
	"nowa/internal/sched"
)

// The blocked gauge (Stats.BlockedLive) is derived from the per-token
// counters BlockedWaits, ResumedWaits and AbortedWaits: a wait's start
// is flushed before the strand parks, its end is pended after the resume
// and published at the strand's next flush. These tests hold the two
// promises that derivation makes — never below the strands parked, and
// no token kept from retiring by an end not yet published.

func gaugeRuntime(workers int) *sched.Runtime {
	return sched.MustNew(sched.Config{
		Name: "nowa", Workers: workers, Deque: deque.CL, Join: sched.WaitFree,
		Spawn: sched.SpawnEager,
	})
}

// TestBlockedLiveNeverUnder: 16 strands ping-pong in pairs over Channels
// on 4 tokens, so waits begin on one token and end on another, while
// samplers read the gauge throughout. A read that summed the starts
// before the ends could see an end whose start it missed and go
// negative; the derived read must not, and it settles at 0.
func TestBlockedLiveNeverUnder(t *testing.T) {
	const pairs, rounds, samplers = 8, 20000, 3
	rt := gaugeRuntime(4)
	defer rt.Close()
	// Each sampler keeps its own tallies, read only after it stopped.
	var samples, under, lowest [samplers]int64
	stop := make(chan struct{})
	var stopped sync.WaitGroup
	for i := range samplers {
		// The first sampler reads through Stats; the others read the
		// gauge alone, so a sampler preempted mid-read is most likely
		// preempted inside it.
		read := func() int64 { return sched.BlockedLive(rt) }
		if i == 0 {
			read = func() int64 { return rt.Stats().BlockedLive }
		}
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := read(); n < 0 {
					under[i]++
					lowest[i] = min(lowest[i], n)
				}
				samples[i]++
			}
		}()
	}
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		for i := 0; i < pairs; i++ {
			ping, pong := nowa.NewChannel[int](1), nowa.NewChannel[int](1)
			s.Spawn(func(c api.Ctx) {
				for r := 0; r < rounds; r++ {
					v, _ := ping.Recv(c)
					_ = pong.Send(c, v+1)
				}
			})
			s.Spawn(func(c api.Ctx) {
				for r := 0; r < rounds; r++ {
					_ = ping.Send(c, r)
					_, _ = pong.Recv(c)
				}
			})
		}
		s.Sync()
	})
	close(stop)
	stopped.Wait()
	for i := range samplers {
		if under[i] != 0 {
			t.Errorf("sampler %d: the gauge read negative in %d of %d samples (lowest %d)", i, under[i], samples[i], lowest[i])
		}
	}
	st := rt.Stats()
	if st.BlockedWaits == 0 {
		t.Fatal("no strand ever blocked: the test exercised nothing")
	}
	if st.BlockedLive != 0 {
		t.Errorf("BlockedLive = %d after Run, want 0", st.BlockedLive)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Error(err)
	}
}

// TestBlockWindDownResumedUnflushed: a strand is resumed before the run
// winds down and keeps running, its wait's end still pended, so the
// gauge reads it as parked and an idle token's thief parks through the
// wind-down. The strand's finish publishes the end and must rouse that
// thief: every token retires, and the run ends idle. The wind-down is a
// cancelled RunCtx, or a root that panicked past its un-synced child —
// there the root's done-wake comes before the child's flush.
func TestBlockWindDownResumedUnflushed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		panics bool
	}{{"cancelled", false}, {"root-panicked", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := gaugeRuntime(3)
			defer rt.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ch := nowa.NewChannel[int](1)
			resumed, windDown, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
			ended := make(chan any, 1)
			go func() {
				defer func() { ended <- recover() }()
				_ = rt.RunCtx(ctx, func(c api.Ctx) {
					s := c.Scope()
					s.Spawn(func(c api.Ctx) {
						if _, err := ch.Recv(c); err != nil {
							t.Errorf("Recv: %v", err)
						}
						close(resumed)
						<-release
					})
					// Should a thief have stolen this continuation, wait for
					// the child to park: the wait under test must be real.
					for rt.Stats().BlockedLive == 0 {
						runtime.Gosched()
					}
					_ = ch.Send(c, 1)
					if tc.panics {
						<-windDown
						panic("the root gives up on its child")
					}
					s.Sync()
				})
			}()
			<-resumed
			parks := rt.Counters().ThiefParks
			if tc.panics {
				close(windDown)
			} else {
				cancel()
			}
			// Let an idle token's thief reach its wind-down park; should it
			// retire instead, the release below merely finds nobody asleep.
			for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(100 * time.Microsecond) {
				if c := rt.Counters(); c.ThiefParks > parks && c.ThiefParks > c.ThiefWakeups {
					break
				}
			}
			close(release)
			select {
			case r := <-ended:
				if (r != nil) != tc.panics {
					t.Errorf("RunCtx panicked with %v", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunCtx never returned: a token stayed parked behind a published wait end")
			}
			if err := rt.CheckIdle(); err != nil {
				t.Error(err)
			}
			if st := rt.Stats(); st.BlockedWaits != 1 || st.BlockedLive != 0 {
				t.Errorf("BlockedWaits = %d, BlockedLive = %d; want 1, 0", st.BlockedWaits, st.BlockedLive)
			}
		})
	}
}
