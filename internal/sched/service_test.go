package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/deque"
)

// TestServiceSubmissionRunsWide: a submission has the whole runtime to
// itself, as a Run does — no token sits waiting for the next submission.
// A two-worker eager service runs a fork of two 2 ms busy leaves; the
// leaves must run on different tokens, and the fork must take at most
// 1.2× what the same fork takes under Run. The medians (logged) are
// 2.0 ms both ways on a quiet host, but swing between 2 and 4 ms on both
// sides whenever other processes hold a vCPU, so the check compares each
// side's fastest fork: what the scheduler allows rather than what the
// neighbours do. Were a token held by a strand waiting for submissions,
// no submission fork would be faster than 4 ms. Under the default
// SpawnAdaptive the fork still takes 4 ms both ways: the first leaf runs
// inline and its continuation waits for a demand nobody posts in time
// (ROADMAP item 3).
func TestServiceSubmissionRunsWide(t *testing.T) {
	const (
		leaf  = 2 * time.Millisecond
		forks = 15
	)
	cfg := Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree, Spawn: SpawnEager}
	// fork times the two leaves and reports whether they ran on different
	// tokens.
	fork := func(c api.Ctx) (time.Duration, bool) {
		var on [2]int
		start := time.Now()
		s := c.Scope()
		for i := range on {
			s.Spawn(func(c api.Ctx) {
				on[i] = c.(*Proc).worker
				for t0 := time.Now(); time.Since(t0) < leaf; {
				}
			})
		}
		s.Sync()
		return time.Since(start), on[0] != on[1]
	}
	median := func(d []time.Duration) time.Duration {
		d = slices.Clone(d)
		slices.Sort(d)
		return d[len(d)/2]
	}

	rt := MustNew(cfg)
	defer rt.Close()
	srt := MustNew(cfg)
	defer srt.Close()
	if err := srt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	// A shared host can starve either side of a vCPU for a whole round, so
	// a failed round is run again, up to three times; with a token held
	// waiting for submissions every round fails.
	failure := ""
	for round := 0; round < 3; round++ {
		// The two sides alternate fork by fork, so that both see the same
		// host.
		runs, subs := make([]time.Duration, forks), make([]time.Duration, forks)
		var wideRuns, wideSubs int
		for i := 0; i < forks; i++ {
			var wide bool
			rt.Run(func(c api.Ctx) { runs[i], wide = fork(c) })
			if wide {
				wideRuns++
			}
			sub, err := srt.SubmitCtxOpts(nil, func(c api.Ctx) { subs[i], wide = fork(c) }, SubmitOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Wait(); err != nil {
				t.Fatal(err)
			}
			if wide {
				wideSubs++
			}
		}
		r, s := slices.Min(runs), slices.Min(subs)
		t.Logf("median fork: %v under Run, %v as a submission; fastest: %v and %v; leaves spread in %d and %d of %d",
			median(runs), median(subs), r, s, wideRuns, wideSubs, forks)
		switch {
		case wideRuns == 0:
			// The host ran nothing in parallel: nothing to compare with.
		case wideSubs == 0:
			failure = fmt.Sprintf("no submission ran its leaves on two tokens; %d of %d forks under Run did", wideRuns, forks)
		case float64(s) > 1.2*float64(r):
			failure = fmt.Sprintf("fastest fork %v as a submission, %v under Run; want at most 1.2x", s, r)
		default:
			return
		}
	}
	if failure == "" {
		t.Skip("no fork spread its leaves under Run in any round: the host shows no parallelism to compare with")
	}
	t.Error(failure)
}

// TestServiceAdmissionStress drives the lock-free admission queue from
// every side at once, per policy and at 2 and 3 workers: four producers
// (every fifth submission with a deadline that may expire while queued)
// against the taking tokens, and Close landing mid-stream. Every
// admitted future must resolve exactly once (a second resolve panics on
// the closed done channel) with an outcome the queue allows, one
// ServiceStats snapshot after Close must balance against what the
// futures say, and CheckIdle must find nothing leaked.
func TestServiceAdmissionStress(t *testing.T) {
	for _, policy := range []OverloadPolicy{OverloadFailFast, OverloadShed, OverloadBlock} {
		for _, workers := range []int{2, 3} {
			t.Run(fmt.Sprintf("%v/workers=%d", policy, workers), func(t *testing.T) {
				rt := MustNew(Config{Name: "nowa", Workers: workers, Deque: deque.CL, Join: WaitFree})
				defer rt.Close()
				if err := rt.StartService(ServiceConfig{QueueDepth: 8, Policy: policy}); err != nil {
					t.Fatal(err)
				}
				task := func(c api.Ctx) {
					s := c.Scope()
					s.Spawn(func(api.Ctx) {})
					s.Sync()
				}
				var (
					mu   sync.Mutex
					subs []*Submission
					stop atomic.Bool
					wg   sync.WaitGroup
				)
				for range 4 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 2000 && !stop.Load(); i++ {
							var opts SubmitOpts
							if i%5 == 0 {
								opts.Deadline = time.Now().Add(100 * time.Microsecond)
							}
							sub, err := rt.SubmitCtxOpts(nil, task, opts)
							switch {
							case err == nil:
								mu.Lock()
								subs = append(subs, sub)
								mu.Unlock()
							case errors.Is(err, ErrServiceClosed):
								return
							case !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.DeadlineExceeded):
								t.Errorf("Submit: %v", err)
								return
							}
						}
					}()
				}
				time.Sleep(30 * time.Millisecond)
				rt.Close()
				stop.Store(true)
				wg.Wait()

				var completed, shed, cancelled int64
				for i, sub := range subs {
					select {
					case <-sub.Done():
					case <-time.After(5 * time.Second):
						t.Fatalf("admitted submission %d never resolved", i)
					}
					switch err := sub.Wait(); {
					case err == nil:
						completed++
					case errors.Is(err, ErrShed):
						shed++
					case errors.Is(err, context.DeadlineExceeded):
						cancelled++
					default:
						t.Fatalf("submission %d resolved with %v", i, err)
					}
				}
				st, _ := rt.ServiceStats()
				if st.Queued != 0 || st.InFlight != 0 || st.Admitted != int64(len(subs)) ||
					st.Completed != completed || st.Shed != shed || st.Cancelled != cancelled || st.Panicked != 0 ||
					st.Submitted < st.Admitted+st.Rejected {
					t.Fatalf("stats %+v do not balance against %d admitted futures (%d completed, %d shed, %d cancelled)",
						st, len(subs), completed, shed, cancelled)
				}
				if err := rt.CheckIdle(); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d admitted: %d completed, %d shed, %d cancelled; %d rejected", len(subs), completed, shed, cancelled, st.Rejected)
			})
		}
	}
}

// TestServiceCancelStormAccounting pins that service accounting is final
// the moment the gauges say idle while cancelled submissions wind down.
// Rounds of concurrent callers each submit a slow cooperative task and
// cancel it through its context without waiting for it; a side
// goroutine hammers ServiceStats throughout and checks every snapshot
// taken while no Submit was in progress: one that shows nothing queued
// and nothing in flight must already balance. It used not to — a
// finishing submission left the in-flight gauge before its outcome was
// tallied, a dispatched one left the queue gauge long before it entered
// the in-flight one, and the snapshot read the tallies before the
// gauges.
func TestServiceCancelStormAccounting(t *testing.T) {
	for _, cfg := range variantConfigs(4) {
		t.Run(cfg.Name, func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			if err := rt.StartService(ServiceConfig{QueueDepth: 64}); err != nil {
				t.Fatal(err)
			}
			slow := func(c api.Ctx) {
				for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end) && c.Err() == nil; {
					time.Sleep(100 * time.Microsecond)
				}
			}

			// A snapshot is quiet when every Submit started before it had
			// returned and none started while it was taken.
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
						ctx, cancel := context.WithCancel(context.Background())
						_, err := rt.SubmitCtxOpts(ctx, slow, SubmitOpts{})
						finished.Add(1)
						if err != nil {
							cancel()
							t.Errorf("Submit: %v", err)
							return
						}
						time.Sleep(time.Millisecond)
						cancel()
					}()
				}
				wg.Wait()
				// The cancelled submissions are still winding down: let the
				// sampler watch them drain until it has seen this round's idle
				// snapshot.
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
				t.Fatalf("no submission was ever cancelled: the storm lost its premise: %+v", ss)
			}
			rt.Close()
			if err := rt.CheckIdle(); err != nil {
				t.Fatalf("CheckIdle after the storm: %v", err)
			}
		})
	}
}
