package nowa

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/chaos"
	"nowa/internal/cqs"
	"nowa/internal/deque"
	"nowa/internal/sched"
	"nowa/internal/trace"
)

// blockingRuntimes returns the four vessel-model variants configured for
// blocking workloads: eager spawning, because a spawned strand that
// parks on a future or channel until code *after* the Spawn call
// resolves it must actually run concurrently, which lazy inline
// execution cannot provide.
func blockingRuntimes(t *testing.T) map[string]Runtime {
	t.Helper()
	rts := map[string]Runtime{}
	for _, v := range []Variant{VariantNowa, VariantNowaTHE, VariantFibril, VariantCilkPlus} {
		rts[v.String()] = NewLimited(v, 4, Limits{Spawn: SpawnEager})
	}
	return rts
}

// assertWaitConservation asserts the §16 leak-freedom invariant on an
// idle runtime: every blocked wait was ended exactly once (by resume or
// abort), nothing is still parked, and the usual resource
// reconciliations hold.
func assertWaitConservation(t *testing.T, rt Runtime) {
	t.Helper()
	if err := rt.(*sched.Runtime).CheckIdle(); err != nil {
		t.Fatalf("not idle after blocking run: %v", err)
	}
}

// TestFutureResolveAwait: awaiters spawned before the resolution park
// and release their workers; the resolver wakes all of them with the
// value.
func TestFutureResolveAwait(t *testing.T) {
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			f := NewFuture[int]()
			var got [8]int
			var errs [8]error
			rt.Run(func(c Ctx) {
				s := c.Scope()
				for i := 0; i < 8; i++ {
					i := i
					s.Spawn(func(c Ctx) { got[i], errs[i] = f.Await(c) })
				}
				f.Complete(42)
				s.Sync()
			})
			for i := 0; i < 8; i++ {
				if errs[i] != nil || got[i] != 42 {
					t.Fatalf("awaiter %d: (%d, %v), want (42, nil)", i, got[i], errs[i])
				}
			}
			if v, err, ok := f.TryGet(); !ok || err != nil || v != 42 {
				t.Fatalf("TryGet after resolve = (%d, %v, %v)", v, err, ok)
			}
			if f.Complete(7) {
				t.Fatal("second Complete succeeded")
			}
			assertWaitConservation(t, rt)
		})
	}
}

// TestFuturePoison: a producer that panics poisons the future instead of
// stranding its awaiters; every Await unblocks with ErrPoisoned.
func TestFuturePoison(t *testing.T) {
	rt := NewLimited(VariantNowa, 4, Limits{Spawn: SpawnEager})
	defer Close(rt)
	f := NewFuture[string]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }() // Resolve re-raises after poisoning
		f.Resolve(func() (string, error) { panic("boom") })
	}()
	var err error
	rt.Run(func(c Ctx) { _, err = f.Await(c) })
	<-done
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("await on poisoned future: %v, want ErrPoisoned", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("poison error lost the cause: %v", err)
	}
	assertWaitConservation(t, rt)
}

// TestFutureAbortStorm is the tentpole torture: N strands park on one
// future while the caller context is cancelled concurrently with a
// racing resolution. Every awaiter must end exactly once — with the
// value or with context.Canceled, never a hang, never a double wake —
// across all four deque variants, and the wait ledger must reconcile.
func TestFutureAbortStorm(t *testing.T) {
	const waiters = 24
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			for round := 0; round < 8; round++ {
				f := NewFuture[int]()
				ctx, cancel := context.WithCancel(context.Background())
				var resumed, aborted atomic.Int64
				start := make(chan struct{})
				go func() {
					<-start
					if round%2 == 0 {
						cancel()
						f.Complete(round)
					} else {
						f.Complete(round)
						cancel()
					}
				}()
				err := rt.RunCtx(ctx, func(c Ctx) {
					s := c.Scope()
					for i := 0; i < waiters; i++ {
						s.Spawn(func(c Ctx) {
							v, err := f.Await(c)
							switch {
							case err == nil && v == round:
								resumed.Add(1)
							case errors.Is(err, context.Canceled):
								aborted.Add(1)
							default:
								t.Errorf("awaiter got (%d, %v)", v, err)
							}
						})
					}
					close(start)
					s.Sync()
				})
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("run: %v", err)
				}
				if n := resumed.Load() + aborted.Load(); n != waiters {
					t.Fatalf("round %d: %d awaiters finished, want %d (resumed=%d aborted=%d)",
						round, n, waiters, resumed.Load(), aborted.Load())
				}
			}
			assertWaitConservation(t, rt)
		})
	}
}

// TestBlockWindDownParkedThieves: when a run is cancelled while strands
// are still parked on external waits, idle tokens park through the
// wind-down (parkThief sleeps while blocked waits hold the retirement
// gate shut) instead of spinning, and must still be woken once the last
// blocked wait drains so they can retire. A lost wakeup leaves tokens
// parked forever and turns RunCtx completion into a hang, which is how
// this test fails.
func TestBlockWindDownParkedThieves(t *testing.T) {
	const waiters = 6
	// Every wait hands its token to a thief, so the wind-down finds idle
	// tokens with nothing to steal.
	t.Run("thief", func(t *testing.T) {
		rt := NewLimited(VariantNowa, 4, Limits{Spawn: SpawnEager})
		defer Close(rt)
		f := NewFuture[int]() // never resolved: only the aborts end the waits
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var entered, aborted atomic.Int64
		go func() {
			for entered.Load() == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			// Let the waiters park and the idle tokens reach the
			// parker before the wind-down starts, so the cancel
			// lands on parked thieves.
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		err := rt.RunCtx(ctx, func(c Ctx) {
			s := c.Scope()
			for i := 0; i < waiters; i++ {
				s.Spawn(func(c Ctx) {
					entered.Add(1)
					if _, err := f.Await(c); errors.Is(err, context.Canceled) {
						aborted.Add(1)
					}
				})
			}
			s.Sync()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run: %v, want context.Canceled", err)
		}
		if got := aborted.Load(); got != waiters {
			t.Fatalf("%d of %d waiters saw context.Canceled", got, waiters)
		}
		assertWaitConservation(t, rt)
	})
}

// TestChannelPipeline: values flow producer → stage → consumer through
// bounded channels, with Close propagating completion downstream.
func TestChannelPipeline(t *testing.T) {
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			const n = 200
			in := NewChannel[int](4)
			out := NewChannel[int](4)
			var sum int64
			rt.Run(func(c Ctx) {
				s := c.Scope()
				s.Spawn(func(c Ctx) { // stage: double everything
					for {
						v, err := in.Recv(c)
						if err != nil {
							out.Close()
							return
						}
						if err := out.Send(c, 2*v); err != nil {
							return
						}
					}
				})
				s.Spawn(func(c Ctx) { // consumer
					for {
						v, err := out.Recv(c)
						if err != nil {
							return
						}
						atomic.AddInt64(&sum, int64(v))
					}
				})
				for i := 1; i <= n; i++ { // producer on the parent strand
					if err := in.Send(c, i); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
				}
				in.Close()
				s.Sync()
			})
			if want := int64(n * (n + 1)); sum != want {
				t.Fatalf("pipeline sum = %d, want %d", sum, want)
			}
			assertWaitConservation(t, rt)
		})
	}
}

// TestChannelCloseSemantics: send on closed fails fast, receive drains
// the buffer then reports closed, and Close releases a sender blocked on
// a full buffer.
func TestChannelCloseSemantics(t *testing.T) {
	rt := NewLimited(VariantNowa, 4, Limits{Spawn: SpawnEager})
	defer Close(rt)
	ch := NewChannel[int](2)
	var blockedErr error
	rt.Run(func(c Ctx) {
		s := c.Scope()
		if err := ch.Send(c, 1); err != nil {
			t.Errorf("send 1: %v", err)
		}
		if err := ch.Send(c, 2); err != nil {
			t.Errorf("send 2: %v", err)
		}
		s.Spawn(func(c Ctx) { blockedErr = ch.Send(c, 3) }) // blocks: buffer full
		for ch.Len() < 2 {
		}
		time.Sleep(time.Millisecond) // let the blocked sender park
		ch.Close()
		s.Sync()
	})
	if !errors.Is(blockedErr, ErrClosed) {
		t.Fatalf("blocked sender after Close: %v, want ErrClosed", blockedErr)
	}
	rt.Run(func(c Ctx) {
		if err := ch.Send(c, 9); !errors.Is(err, ErrClosed) {
			t.Errorf("send on closed: %v, want ErrClosed", err)
		}
		for want := 1; want <= 2; want++ {
			v, err := ch.Recv(c)
			if err != nil || v != want {
				t.Errorf("drain recv = (%d, %v), want (%d, nil)", v, err, want)
			}
		}
		if _, err := ch.Recv(c); !errors.Is(err, ErrClosed) {
			t.Errorf("recv after drain: %v, want ErrClosed", err)
		}
	})
	assertWaitConservation(t, rt)
}

// TestChannelAbortStorm: blocked senders and receivers are cancelled
// concurrently with racing completions and a racing Close. Nothing may
// hang; every operation resolves to a value, ErrClosed, or the
// context's error; the wait ledger reconciles.
func TestChannelAbortStorm(t *testing.T) {
	const parties = 16
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			rng := rand.New(rand.NewSource(42))
			for round := 0; round < 8; round++ {
				ch := NewChannel[int](2)
				ctx, cancel := context.WithCancel(context.Background())
				var finished atomic.Int64
				start := make(chan struct{})
				closeToo := round%2 == 0
				go func() {
					<-start
					cancel()
					if closeToo {
						ch.Close()
					}
				}()
				err := rt.RunCtx(ctx, func(c Ctx) {
					s := c.Scope()
					for i := 0; i < parties; i++ {
						i := i
						s.Spawn(func(c Ctx) {
							defer finished.Add(1)
							if i%2 == 0 {
								err := ch.Send(c, i)
								if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
									t.Errorf("send: %v", err)
								}
							} else {
								_, err := ch.Recv(c)
								if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
									t.Errorf("recv: %v", err)
								}
							}
						})
					}
					if rng.Intn(2) == 0 {
						close(start)
					} else {
						defer close(start)
					}
					s.Sync()
				})
				cancel()
				ch.Close() // release any survivor blocked past the cancel
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("run: %v", err)
				}
				if n := finished.Load(); n != parties {
					t.Fatalf("round %d: %d strands finished, want %d", round, n, parties)
				}
			}
			assertWaitConservation(t, rt)
		})
	}
}

// TestChannelMPMCStress: every mix of 1, 2 and 4 senders and receivers
// over buffers of 1, 2 and 8 items and of one more than all items sent
// (the BFS kernel's shape, where no send waits). Each item arrives
// exactly once, and a receiver sees any one sender's items in the order
// they were sent (items leave in ticket order). Run under -race, it also
// checks that each item is written before the CAS that publishes it.
func TestChannelMPMCStress(t *testing.T) {
	const perSender = 150
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			for _, senders := range []int{1, 2, 4} {
				for _, receivers := range []int{1, 2, 4} {
					for _, capacity := range []int{1, 2, 8, senders*perSender + 1} {
						ch := NewChannel[int](capacity)
						seen := make([]atomic.Int32, senders*perSender)
						var sending atomic.Int32
						sending.Store(int32(senders))
						rt.Run(func(c Ctx) {
							s := c.Scope()
							for i := 0; i < senders; i++ {
								i := i
								s.Spawn(func(c Ctx) {
									for n := 0; n < perSender; n++ {
										if err := ch.Send(c, i*perSender+n); err != nil {
											t.Errorf("send: %v", err)
										}
									}
									if sending.Add(-1) == 0 {
										ch.Close()
									}
								})
							}
							for i := 0; i < receivers; i++ {
								s.Spawn(func(c Ctx) {
									last := make([]int, senders)
									for v, err := ch.Recv(c); err == nil; v, err = ch.Recv(c) {
										seen[v].Add(1)
										if from, n := v/perSender, v%perSender+1; n <= last[from] {
											t.Errorf("sender %d: item %d received after item %d", from, n-1, last[from]-1)
										} else {
											last[from] = n
										}
									}
								})
							}
							s.Sync()
						})
						for v := range seen {
							if n := seen[v].Load(); n != 1 {
								t.Fatalf("%dx%d cap %d: item %d received %d times", senders, receivers, capacity, v, n)
							}
						}
					}
				}
			}
			assertWaitConservation(t, rt)
		})
	}
}

// TestChannelCloseUnderTraffic has one sender close the channel while it,
// three more senders and two receivers are busy on it. Every sender ends
// with ErrClosed; every item whose Send returned nil — before Close or
// overlapping it — reaches a receiver exactly once, and nothing is left
// behind the last receiver; and no waiter is left behind, in the wait
// ledger or in the channel's segment list.
func TestChannelCloseUnderTraffic(t *testing.T) {
	const senders, receivers, limit = 4, 2, 1 << 14
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			for round := 0; round < 20; round++ {
				ch := NewChannel[int](2)
				var acked [senders]atomic.Int32 // sends that returned nil, per sender
				var before [senders]int32       // acked when Close was called
				seen := make([]atomic.Int32, senders*limit)
				rt.Run(func(c Ctx) {
					s := c.Scope()
					for i := 0; i < senders; i++ {
						i := i
						s.Spawn(func(c Ctx) {
							for n := 0; n < limit; n++ { // limit only bounds seen
								if i == 0 && n == 10*(round+1) {
									for j := range before {
										before[j] = acked[j].Load()
									}
									ch.Close()
								}
								if err := ch.Send(c, i*limit+n); err != nil {
									if !errors.Is(err, ErrClosed) {
										t.Errorf("send: %v, want ErrClosed", err)
									}
									return
								}
								acked[i].Add(1)
							}
						})
					}
					for i := 0; i < receivers; i++ {
						s.Spawn(func(c Ctx) {
							for v, err := ch.Recv(c); err == nil; v, err = ch.Recv(c) {
								seen[v].Add(1)
							}
						})
					}
					s.Sync()
				})
				for i := range before {
					for n := 0; n < int(before[i]); n++ {
						if seen[i*limit+n].Load() != 1 {
							t.Fatalf("round %d: sender %d item %d was sent before Close and not received", round, i, n)
						}
					}
				}
				rt.Run(func(c Ctx) { // nothing lands behind the last receiver
					if v, err := ch.Recv(c); !errors.Is(err, ErrClosed) {
						t.Errorf("round %d: recv after the last receiver = (%d, %v), want ErrClosed", round, v, err)
					}
				})
				for i := range acked {
					for n := 0; n < limit; n++ {
						want := int32(0)
						if n < int(acked[i].Load()) {
							want = 1
						}
						if got := seen[i*limit+n].Load(); got != want {
							t.Fatalf("round %d: sender %d item %d (of %d acknowledged) received %d times", round, i, n, acked[i].Load(), got)
						}
					}
				}
				if n := chanSegments(ch); n > 2 {
					t.Fatalf("round %d: %d segments reachable after the close", round, n)
				}
			}
			assertWaitConservation(t, rt)
			if st, _ := Resources(rt); st.BlockedWaits == 0 {
				t.Fatal("nothing blocked: the rounds did not exercise the close sweep")
			}
		})
	}
}

// chanSegments counts the segments of ch's cell array that its three
// cursors keep reachable, back through prev links and on through next.
func chanSegments[T any](ch *Channel[T]) int {
	n := 0
	for _, h := range ch.heads {
		n = max(n, cqs.Reach(h.Load()))
	}
	return n
}

// TestChannelRecvAbortStormBounded cancels receive after receive on an
// empty channel: each parks in a fresh cell and is aborted there, so the
// receive counter runs segments ahead of the send counter. Segments whose
// cells were all cancelled unlink, and a later send still reaches a
// receiver.
func TestChannelRecvAbortStormBounded(t *testing.T) {
	rt := NewLimited(VariantNowa, 1, Limits{Spawn: SpawnEager})
	defer Close(rt)
	ch := NewChannel[int](1)
	ctx, cancel := context.WithCancel(context.Background())
	err := rt.RunCtx(ctx, func(c Ctx) {
		cancel()
		for i := 0; i < 20*cqs.SegSize; i++ {
			if _, err := ch.Recv(c); !errors.Is(err, context.Canceled) {
				t.Errorf("receive %d on a cancelled strand: %v, want context.Canceled", i, err)
				return
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run: %v, want context.Canceled", err)
	}
	if n := chanSegments(ch); n > 3 {
		t.Fatalf("%d segments reachable after %d cancelled receives", n, 20*cqs.SegSize)
	}
	rt.Run(func(c Ctx) {
		s := c.Scope()
		s.Spawn(func(c Ctx) {
			if v, err := ch.Recv(c); err != nil || v != 7 {
				t.Errorf("recv after the storm = (%d, %v), want (7, nil)", v, err)
			}
		})
		if err := ch.Send(c, 7); err != nil {
			t.Errorf("send after the storm: %v", err)
		}
		s.Sync()
	})
	assertWaitConservation(t, rt)
}

// TestChannelPoisonedCell stalls a send between its ticket FAA and its
// cell, by hand, while a receiver takes the same ticket. The receiver
// poisons the unwritten cell rather than wait for it, spends it (one
// more cell may buffer) and parks on the next ticket; the stalled send
// then finds its cell spent and, retrying, hands its item to the parked
// receiver.
func TestChannelPoisonedCell(t *testing.T) {
	rt := NewLimited(VariantNowa, 4, Limits{Spawn: SpawnEager})
	defer Close(rt)
	const capacity = 2
	ch := NewChannel[int](capacity)
	var got atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := rt.RunCtx(ctx, func(c Ctx) {
		start := ch.sendSeg.Load()
		st := ch.senders.Add(1) - 1 // the stalled send's ticket
		seg := cqs.Find(start, &ch.sendSeg, st/cqs.SegSize)
		s := c.Scope()
		s.Spawn(func(c Ctx) {
			v, err := ch.Recv(c)
			if err != nil {
				t.Errorf("recv: %v", err)
			}
			got.Store(int64(v))
		})
		for st, _ := Resources(rt); st.BlockedWaits < 1; st, _ = Resources(rt) {
			runtime.Gosched()
		}
		if state := seg.Cells[slot(st)].state.v.Load(); state != cellPoisoned {
			t.Errorf("stalled send's cell in state %d, want poisoned", state)
		}
		if done, err := ch.put(procOf(c), &seg.Cells[slot(st)], st, 7); done || err != nil {
			t.Errorf("put into the poisoned cell = (%v, %v), want a retry", done, err)
		}
		if err := ch.Send(c, 7); err != nil {
			t.Errorf("retried send: %v", err)
		}
		s.Sync()
	})
	if err != nil {
		t.Fatalf("the receiver slept beside its item: %v", err)
	}
	if got.Load() != 7 {
		t.Fatalf("received %d, want 7", got.Load())
	}
	// Two receive visits spent a cell each: the poisoned one and the one
	// the receiver parked in.
	if s, r, b := ch.senders.Load(), ch.receivers.Load(), ch.bufferEnd.Load(); s != 2 || r != 2 || b != capacity+2 {
		t.Fatalf("senders %d, receivers %d, bufferEnd %d; want 2, 2, %d", s, r, b, capacity+2)
	}
	assertWaitConservation(t, rt)
}

// advances exactly once per trip.
func TestBarrierGenerations(t *testing.T) {
	const parties, gens = 4, 25
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			b := NewBarrier(parties)
			var crossings atomic.Int64
			rt.Run(func(c Ctx) {
				s := c.Scope()
				for i := 0; i < parties; i++ {
					s.Spawn(func(c Ctx) {
						for g := 0; g < gens; g++ {
							if err := b.Wait(c); err != nil {
								t.Errorf("wait: %v", err)
								return
							}
							crossings.Add(1)
						}
					})
				}
				s.Sync()
			})
			if got := crossings.Load(); got != parties*gens {
				t.Fatalf("crossings = %d, want %d", got, parties*gens)
			}
			if g := b.Generation(); g != gens {
				t.Fatalf("generation = %d, want %d", g, gens)
			}
			assertWaitConservation(t, rt)
		})
	}
}

// TestBarrierAbortWithdrawsArrival: cancelling strands parked at a
// barrier withdraws their arrivals — the barrier is not left one short
// forever — and a full complement of fresh arrivals trips it normally
// afterwards.
func TestBarrierAbortWithdrawsArrival(t *testing.T) {
	rt := NewLimited(VariantNowa, 4, Limits{Spawn: SpawnEager})
	defer Close(rt)
	b := NewBarrier(3)
	ctx, cancel := context.WithCancel(context.Background())
	var errs [2]error
	var parked atomic.Int64
	go func() {
		for parked.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	err := rt.RunCtx(ctx, func(c Ctx) {
		s := c.Scope()
		for i := 0; i < 2; i++ {
			i := i
			s.Spawn(func(c Ctx) {
				parked.Add(1)
				errs[i] = b.Wait(c)
			})
		}
		s.Sync()
	})
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("run: %v", err)
	}
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("cancelled waiter %d: %v, want context.Canceled", i, e)
		}
	}
	if g := b.Generation(); g != 0 {
		t.Fatalf("generation after aborted arrivals = %d, want 0", g)
	}
	// The withdrawn arrivals must not count toward the next trip.
	var ok atomic.Int64
	rt.Run(func(c Ctx) {
		s := c.Scope()
		for i := 0; i < 3; i++ {
			s.Spawn(func(c Ctx) {
				if b.Wait(c) == nil {
					ok.Add(1)
				}
			})
		}
		s.Sync()
	})
	if ok.Load() != 3 || b.Generation() != 1 {
		t.Fatalf("post-abort trip: ok=%d generation=%d, want 3 and 1", ok.Load(), b.Generation())
	}
	assertWaitConservation(t, rt)
}

// TestBarrierAbortStorm: arrivals and cancellations race across many
// generations; no strand hangs and the ledger reconciles. An abort that
// loses to the trip passes the barrier, so crossing counts are not
// asserted — only termination and conservation.
func TestBarrierAbortStorm(t *testing.T) {
	const parties = 3
	for name, rt := range blockingRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			defer Close(rt)
			for round := 0; round < 10; round++ {
				b := NewBarrier(parties)
				ctx, cancel := context.WithCancel(context.Background())
				var finished atomic.Int64
				// The canceller waits for the root: RunCtx does not run an
				// already-cancelled context at all.
				started := make(chan struct{})
				go func() {
					<-started
					time.Sleep(time.Duration(round%4) * time.Millisecond)
					cancel()
				}()
				err := rt.RunCtx(ctx, func(c Ctx) {
					close(started)
					s := c.Scope()
					for i := 0; i < parties*2; i++ {
						s.Spawn(func(c Ctx) {
							defer finished.Add(1)
							for g := 0; g < 50; g++ {
								if err := b.Wait(c); err != nil {
									if !errors.Is(err, context.Canceled) {
										t.Errorf("wait: %v", err)
									}
									return
								}
							}
						})
					}
					s.Sync()
				})
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("run: %v", err)
				}
				if n := finished.Load(); n != parties*2 {
					t.Fatalf("round %d: %d strands finished, want %d", round, n, parties*2)
				}
			}
			assertWaitConservation(t, rt)
		})
	}
}

// TestWaitStatsSurface: the wait counters appear in ResourceStats, and
// DumpState carries the waits budget line.
func TestWaitStatsSurface(t *testing.T) {
	rt := NewLimited(VariantNowa, 4, Limits{Spawn: SpawnEager})
	defer Close(rt)
	f := NewFuture[int]()
	rt.Run(func(c Ctx) {
		s := c.Scope()
		for i := 0; i < 6; i++ {
			s.Spawn(func(c Ctx) { f.Await(c) })
		}
		f.Complete(1)
		s.Sync()
	})
	st, _ := Resources(rt)
	if st.BlockedWaits == 0 || st.ResumedWaits == 0 {
		t.Fatalf("wait counters did not move: %+v", st)
	}
	var buf bytes.Buffer
	rt.(*sched.Runtime).DumpState(&buf)
	if !strings.Contains(buf.String(), "waits: blocked=") {
		t.Fatalf("DumpState lacks the waits budget line:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "live=0") {
		t.Fatalf("DumpState waits line not reconciled to zero at quiescence:\n%s", buf.String())
	}
}

// TestSubmitCancelAbortsBlockedWait: in service mode a submission's
// context cancellation reaches a strand blocked in a channel — the
// SubmitCtx machinery is what Close-drain force-cancellation rides on.
// Beside it a submission hangs on a future until the test goroutine,
// which holds no worker token, resolves it; the service then drains
// clean with one wait ended by abort and one by resume.
func TestSubmitCancelAbortsBlockedWait(t *testing.T) {
	rt := NewLimited(VariantNowa, 4, Limits{Spawn: SpawnEager})
	defer Close(rt)
	if err := StartService(rt, ServiceConfig{QueueDepth: 8}); err != nil {
		t.Fatalf("StartService: %v", err)
	}
	ch := NewChannel[int](1)
	ctx, cancel := context.WithCancel(context.Background())
	var got error
	var wg sync.WaitGroup
	wg.Add(1)
	sub, err := SubmitCtx(rt, ctx, func(c Ctx) {
		defer wg.Done()
		_, got = ch.Recv(c) // blocks: channel empty
	}, SubmitOpts{})
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // let the strand park
	cancel()
	wg.Wait()
	sub.Wait()
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("blocked Recv under cancelled submission: %v, want context.Canceled", got)
	}

	fut := NewFuture[int]()
	var awaited int
	hung, err := Submit(rt, func(c Ctx) { awaited, _ = fut.Await(c) }, SubmitOpts{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // let the strand park
	select {
	case <-hung.Done():
		t.Fatal("submission awaiting an unresolved future finished")
	default:
	}
	fut.Complete(7)
	if err := hung.Wait(); err != nil || awaited != 7 {
		t.Fatalf("hung submission: err %v, awaited %d, want nil and 7", err, awaited)
	}
	Close(rt) // the idle invariants hold once the service has drained
	assertWaitConservation(t, rt)
	if st, _ := Resources(rt); st.ResumedWaits == 0 || st.AbortedWaits == 0 {
		t.Fatalf("want one wait ended by resume and one by abort: %+v", st)
	}
}

// TestReplayAbortRace: a single-worker run whose schedule includes
// planted mid-wait aborts (Chaos.AbortWait) and stretched wakeup windows
// (Chaos.WakeupDelay) is a function of its seeds: run twice, the wait
// block/wake/abort arbitration makes the same registrations, leaves the
// same counters and produces the same result.
func TestReplayAbortRace(t *testing.T) {
	// workload returns its sum and how many tickets its primitives gave
	// out: waits registered in the future's queue, channel cells taken.
	workload := func(c Ctx) (sum int64, registered uint64) {
		f := NewFuture[int]()
		ch := NewChannel[int](2)
		s := c.Scope()
		for i := 0; i < 6; i++ {
			s.Spawn(func(c Ctx) {
				if v, err := f.Await(c); err == nil {
					atomic.AddInt64(&sum, int64(v))
				}
			})
		}
		s.Spawn(func(c Ctx) {
			for {
				v, err := ch.Recv(c)
				if err != nil {
					return
				}
				atomic.AddInt64(&sum, int64(v))
			}
		})
		f.Complete(10)
		for i := 0; i < 20; i++ {
			if err := ch.Send(c, 1); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		ch.Close()
		s.Sync()
		// A retry after a planted abort takes another ticket.
		return sum, f.core.q.Enqueued() + ch.senders.Load()&^closedBit + ch.receivers.Load()
	}
	type result struct {
		sum        int64
		registered uint64
		counters   trace.Counters
	}
	capture := func(abortWait int) (r result) {
		cfg := sched.Config{
			Name: "nowa", Workers: 1, Deque: deque.CL, Join: sched.WaitFree,
			Seed:  7,
			Spawn: sched.SpawnEager,
			Chaos: &chaos.Chaos{Seed: 11, AbortWait: abortWait, WakeupDelay: 200, DelaySpins: 1},
		}
		rt := sched.MustNew(cfg)
		defer rt.Close()
		rt.Run(func(c Ctx) { r.sum, r.registered = workload(c) })
		r.counters = rt.Counters()
		return r
	}
	first := capture(300)
	if want := int64(6*10 + 20); first.sum != want {
		t.Fatalf("capture run sum = %d, want %d", first.sum, want)
	}
	// A planted abort that wins its cell sends the strand to register
	// again instead of parking.
	if quiet := capture(0); first.registered <= quiet.registered {
		t.Fatalf("%d registrations with planted aborts, %d without; the test lost its premise",
			first.registered, quiet.registered)
	}
	if again := capture(300); again != first {
		t.Fatalf("rerun %+v\ncapture %+v", again, first)
	}
}

// TestBlockingChaosSelfAbort: the planted Chaos.AbortWait self-aborts
// fire on real workloads across the primitives without changing
// results, and the aborts show up in the ledger while conservation
// still holds — the soundness property of the injection.
func TestBlockingChaosSelfAbort(t *testing.T) {
	cfg := sched.Config{
		Name: "nowa", Workers: 4, Deque: deque.CL, Join: sched.WaitFree,
		Seed:  3,
		Spawn: sched.SpawnEager,
		Chaos: &chaos.Chaos{Seed: 13, AbortWait: 400, WakeupDelay: 200, DelaySpins: 1},
	}
	rt := sched.MustNew(cfg)
	defer rt.Close()
	const n = 100
	ch := NewChannel[int](2)
	b := NewBarrier(2)
	var sum int64
	rt.Run(func(c Ctx) {
		s := c.Scope()
		s.Spawn(func(c Ctx) {
			for {
				v, err := ch.Recv(c)
				if err != nil {
					return
				}
				atomic.AddInt64(&sum, int64(v))
			}
		})
		s.Spawn(func(c Ctx) { b.Wait(c) })
		for i := 1; i <= n; i++ {
			if err := ch.Send(c, i); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		ch.Close()
		b.Wait(c)
		s.Sync()
	})
	if want := int64(n * (n + 1) / 2); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	st := rt.Stats()
	if st.BlockedWaits != st.ResumedWaits+st.AbortedWaits {
		t.Fatalf("conservation under chaos: blocked=%d resumed=%d aborted=%d",
			st.BlockedWaits, st.ResumedWaits, st.AbortedWaits)
	}
	_ = fmt.Sprintf("%d", st.AbortedWaits) // aborts are probabilistic; presence not asserted
}
