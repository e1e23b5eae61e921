// Allocation regression tests for the scheduler fast path.
//
// The tentpole property of the fast-path engineering work (DESIGN.md §9)
// is that a steady-state Spawn/Sync round trip performs zero heap
// allocations: the continuation slot, the scope (with inline join
// storage for both protocols), the child's vessel and the park/resume
// rendezvous are all recycled per-worker state. These tests lock that
// property in with testing.AllocsPerRun so any future allocation on the
// hot path fails CI rather than silently costing a GC cycle per spawn.
package nowa_test

import (
	"context"
	"testing"

	"nowa"
)

// allocVariants are the vessel-model runtimes whose fast path is subject
// to the zero-allocation guarantee. The wait-free and the lock-based
// protocols both store their join inline in the scope slot, so the bound
// is zero for all four; the child-stealing and OpenMP-like comparators
// allocate a task per spawn by design and are excluded.
var allocVariants = []struct {
	v     nowa.Variant
	bound float64 // max allocations per steady-state round trip
}{
	{nowa.VariantNowa, 0},
	{nowa.VariantNowaTHE, 0},
	{nowa.VariantFibril, 0},
	{nowa.VariantCilkPlus, 0},
}

// TestSpawnAllocs asserts the steady-state allocation bound of one
// Spawn/Sync round trip on a single worker (the popBottom-hit path).
// The warm-up loop populates the vessel free list, the scope ring and
// the deque ring so the measurement sees only the recycled state.
func TestSpawnAllocs(t *testing.T) {
	check := func(t *testing.T, rt nowa.Runtime, bound float64) {
		defer nowa.Close(rt)
		var avg float64
		rt.Run(func(c nowa.Ctx) {
			for i := 0; i < 64; i++ {
				s := c.Scope()
				s.Spawn(func(nowa.Ctx) {})
				s.Sync()
			}
			avg = testing.AllocsPerRun(100, func() {
				s := c.Scope()
				s.Spawn(func(nowa.Ctx) {})
				s.Sync()
			})
		})
		if avg > bound {
			t.Errorf("%s: %.2f allocs per spawn/sync round trip, want <= %.0f",
				rt.Name(), avg, bound)
		}
	}
	for _, tc := range allocVariants {
		tc := tc
		t.Run(tc.v.String(), func(t *testing.T) {
			check(t, nowa.New(tc.v, 1), tc.bound)
		})
	}
}

// TestSyncAllocs asserts that an explicit Sync on a scope with no stolen
// children allocates nothing — the no-steal sync is the paper's free
// case and must stay a handful of loads.
func TestSyncAllocs(t *testing.T) {
	for _, tc := range allocVariants {
		tc := tc
		t.Run(tc.v.String(), func(t *testing.T) {
			rt := nowa.New(tc.v, 1)
			defer nowa.Close(rt)
			var avg float64
			rt.Run(func(c nowa.Ctx) {
				s := c.Scope()
				s.Sync()
				avg = testing.AllocsPerRun(100, func() {
					s.Sync()
				})
			})
			if avg > tc.bound {
				t.Errorf("%s: %.2f allocs per empty Sync, want <= %.0f",
					tc.v, avg, tc.bound)
			}
		})
	}
}

// TestSpawnAllocsNested runs the measurement with a non-trivial serial
// spine: nested scopes exercise the ring beyond slot zero and the
// cascade in release, which must also be allocation-free.
func TestSpawnAllocsNested(t *testing.T) {
	rt := nowa.New(nowa.VariantNowa, 1)
	defer nowa.Close(rt)
	var avg float64
	round := func(c nowa.Ctx) {
		s1 := c.Scope()
		s1.Spawn(func(nowa.Ctx) {})
		s2 := c.Scope()
		s2.Spawn(func(nowa.Ctx) {})
		s2.Sync()
		s1.Sync()
	}
	rt.Run(func(c nowa.Ctx) {
		for i := 0; i < 64; i++ {
			round(c)
		}
		avg = testing.AllocsPerRun(100, func() { round(c) })
	})
	if avg > 0 {
		t.Errorf("nowa: %.2f allocs per nested round, want 0", avg)
	}

	// 24 levels deep, past the scope stack's inline slots, and 100, across
	// three of its chunks: once the warm-up has grown the stack, a level
	// costs its child's closure (it captures the depth) and nothing else.
	for _, depth := range []int{24, 100} {
		rt.Run(func(c nowa.Ctx) {
			nestedRounds(c, depth)
			avg = testing.AllocsPerRun(100, func() { nestedRounds(c, depth) })
		})
		if perLevel := avg / float64(depth); perLevel > 1 {
			t.Errorf("nowa: %.2f allocs per level at depth %d, want <= 1 (the closure)", perLevel, depth)
		}
	}
}

// TestChannelAllocs asserts that a Send and a Recv that do not block
// allocate nothing: one ticket CAS, one cell, two looks at the waiter
// queues.
func TestChannelAllocs(t *testing.T) {
	rt := nowa.New(nowa.VariantNowa, 1)
	defer nowa.Close(rt)
	ch := nowa.NewChannel[int](4)
	var avg float64
	rt.Run(func(c nowa.Ctx) {
		avg = testing.AllocsPerRun(100, func() {
			ch.Send(c, 1)
			ch.Recv(c)
		})
	})
	if avg > 0 {
		t.Errorf("%.2f allocs per uncontended Send+Recv, want 0", avg)
	}
}

// TestBlockedWaitAllocs asserts that a blocked external wait under a
// plain Run — where no context can abort it, so no abort arm is built —
// allocates nothing: the wait handle is embedded in the vessel, the
// waiter cell was allocated with the primitive, and the token handoff
// recycles vessels. One worker and eager spawns make every round block:
// the strand that waits holds the only token, which its partner needs.
func TestBlockedWaitAllocs(t *testing.T) {
	const runs = 100
	cases := []struct {
		name string
		// round returns one measured round for the strand c; the partner
		// strand serves kick. Each round blocks both strands once.
		round func(c nowa.Ctx, kick *nowa.Channel[int]) (round func(), serve func(nowa.Ctx, int))
	}{
		{"channel-pingpong", func(c nowa.Ctx, kick *nowa.Channel[int]) (func(), func(nowa.Ctx, int)) {
			pong := nowa.NewChannel[int](1)
			return func() {
					kick.Send(c, 0)
					pong.Recv(c)
				}, func(pc nowa.Ctx, v int) {
					pong.Send(pc, v)
				}
		}},
		{"future-handoff", func(c nowa.Ctx, kick *nowa.Channel[int]) (func(), func(nowa.Ctx, int)) {
			// The futures are the test's own allocations, not the
			// wait's: make one per round up front (AllocsPerRun adds a
			// warm-up call).
			futs := make([]*nowa.Future[int], runs+1)
			for i := range futs {
				futs[i] = nowa.NewFuture[int]()
			}
			next := 0
			return func() {
					kick.Send(c, next)
					futs[next].Await(c)
					next++
				}, func(_ nowa.Ctx, i int) {
					futs[i].Complete(i)
				}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rt := nowa.NewLimited(nowa.VariantNowa, 1, nowa.Limits{Spawn: nowa.SpawnEager})
			defer nowa.Close(rt)
			var avg float64
			rt.Run(func(c nowa.Ctx) {
				kick := nowa.NewChannel[int](1)
				round, serve := tc.round(c, kick)
				s := c.Scope()
				s.Spawn(func(pc nowa.Ctx) {
					for {
						v, err := kick.Recv(pc)
						if err != nil {
							return
						}
						serve(pc, v)
					}
				})
				avg = testing.AllocsPerRun(runs, round)
				kick.Close()
				s.Sync()
			})
			st, _ := nowa.Resources(rt)
			if st.BlockedWaits < 2*runs {
				t.Fatalf("%d blocked waits over %d rounds: the rounds did not block", st.BlockedWaits, runs)
			}
			if avg > 0 {
				t.Errorf("%.2f allocs per round of two blocked waits, want 0", avg)
			}
		})
	}
}

// TestSubmitAllocs bounds what one submission costs the heap: a Submit
// and Wait of an empty task on a two-worker service. The submission, its
// future's channel and its cancellation latch are the floor; a caller
// context that can never be cancelled must not add the link and cancel
// function a cancellable one needs.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	rt := nowa.New(nowa.VariantNowa, 2)
	defer nowa.Close(rt)
	if err := nowa.StartService(rt, nowa.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		bound float64
	}{
		{"nil", nil, 3},
		{"background", context.Background(), 8},
	} {
		round := func() {
			sub, err := nowa.SubmitCtx(rt, tc.ctx, func(nowa.Ctx) {}, nowa.SubmitOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			round()
		}
		if avg := testing.AllocsPerRun(200, round); avg > tc.bound {
			t.Errorf("%s context: %.2f allocs per Submit+Wait, want <= %.0f", tc.name, avg, tc.bound)
		}
	}
}
