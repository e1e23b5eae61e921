package sched

import (
	"strings"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/chaos"
	"nowa/internal/deque"
)

func accountingRuntime(t *testing.T) *Runtime {
	t.Helper()
	return MustNew(Config{Name: "nowa", Workers: 4, Deque: deque.CL, Join: WaitFree})
}

// TestAccountingStatsReconcile checks the leak accounting on the healthy
// path: after a run drains, every vessel and stack ever created is back
// in a free list and the reconciliation reports zero leaked.
func TestAccountingStatsReconcile(t *testing.T) {
	rt := accountingRuntime(t)
	defer rt.Close()
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.VesselsPooled < 0 {
		t.Fatal("VesselsPooled = -1 while idle, want a real count")
	}
	if st.VesselsLeaked != 0 {
		t.Fatalf("VesselsLeaked = %d, want 0 (live=%d pooled=%d)", st.VesselsLeaked, st.VesselsLive, st.VesselsPooled)
	}
	if st.StacksLeaked != 0 {
		t.Fatalf("StacksLeaked = %d, want 0", st.StacksLeaked)
	}
	if st.ScopesLeaked != 0 {
		t.Fatalf("ScopesLeaked = %d, want 0", st.ScopesLeaked)
	}
}

// TestAccountingStackGetsCounted: the trace counters' stack-get tallies
// are the pool's own, so after steal runs they agree with the pool
// snapshot and are not zero (every Run after the first draws the root's
// stack from a free list, and every steal draws one).
func TestAccountingStackGetsCounted(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	for range 3 {
		rt.Run(func(c api.Ctx) { _ = fib(c, 20) })
	}
	c, st := rt.Counters(), rt.Stats().Stacks
	got, want := c.StackLocalGets+c.StackGlobalGets, st.LocalGets+st.GlobalGets
	if got != want || got == 0 {
		t.Fatalf("Counters stack gets = %d (local %d, global %d), pool served %d; want equal and > 0",
			got, c.StackLocalGets, c.StackGlobalGets, want)
	}
}

// TestAccountingStatsMidRun checks that mid-run snapshots refuse to read the
// owner-local caches: pooled reports -1 and no leak is computed.
func TestAccountingStatsMidRun(t *testing.T) {
	rt := accountingRuntime(t)
	defer rt.Close()
	var st Stats
	rt.Run(func(c api.Ctx) { st = rt.Stats() })
	if st.VesselsPooled != -1 {
		t.Fatalf("mid-run VesselsPooled = %d, want -1", st.VesselsPooled)
	}
	if st.VesselsLeaked != 0 {
		t.Fatalf("mid-run VesselsLeaked = %d, want 0 (not computable)", st.VesselsLeaked)
	}
}

// TestAccountingDumpState: the diagnostic dump carries the
// vessel-accounting block, and a dump taken mid-run shows the live run's
// tokens.
func TestAccountingDumpState(t *testing.T) {
	rt := MustNew(Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree})
	defer rt.Close()
	var sb strings.Builder
	rt.DumpState(&sb)
	out := sb.String()
	for _, want := range []string{"accounting: live=", "highWater=", "scopesLeaked="} {
		if !strings.Contains(out, want) {
			t.Fatalf("DumpState missing %q:\n%s", want, out)
		}
	}
	var mid strings.Builder
	rt.Run(func(api.Ctx) { rt.DumpState(&mid) })
	if out := mid.String(); !strings.Contains(out, "tokensLeft=2 running=true") {
		t.Fatalf("mid-run DumpState lacks the live run's token count:\n%s", out)
	}
}

// TestStacksReturnAtSync: a strand that runs many spawn/sync rounds, each
// stolen from, hands a round's charged stacks back when the round's Sync
// completes instead of hoarding them until it ends — on every variant.
func TestStacksReturnAtSync(t *testing.T) {
	for _, cfg := range variantConfigs(4) {
		cfg := cfg
		cfg.Spawn = SpawnEager
		t.Run(cfg.Name, func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			const rounds = 2000
			var live int64
			rt.Run(func(c api.Ctx) {
				for i := 0; i < rounds; i++ {
					s := c.Scope()
					s.Spawn(func(api.Ctx) { spinFor(20 * time.Microsecond) })
					spinFor(20 * time.Microsecond)
					s.Sync()
				}
				live = rt.Stats().Stacks.Allocated
			})
			steals := rt.Counters().Steals
			if steals < 100 {
				t.Skipf("only %d of %d rounds were stolen from; inconclusive on this host", steals, rounds)
			}
			// One stack for the root, one per round in flight, plus
			// whatever the pool buffers keep warm.
			if live > 32 {
				t.Errorf("%d stacks live after %d stolen rounds", live, steals)
			}
			if st := rt.Stats(); st.StacksLeaked != 0 || st.VesselsLeaked != 0 {
				t.Errorf("leaks: stacks %d, vessels %d", st.StacksLeaked, st.VesselsLeaked)
			}
		})
	}
}

// spinFor burns CPU for about d without yielding the worker token.
func spinFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// populationBound is the busy-leaves bound on live vessels for fib(n) on
// workers tokens: a suspension gives its token away, so each token
// drives at most one spawn chain — n+2 vessels deep counting the root's
// and a thief's — and keeps at most perWorkerVesselCap recycled vessels
// idle in its cache.
func populationBound(workers, n int) int64 {
	return int64(workers*(n+2) + workers*perWorkerVesselCap)
}

// vesselHighWater runs fib(n) once on a fresh runtime built from cfg and
// returns its vessel high water.
func vesselHighWater(t *testing.T, cfg Config, n int) int64 {
	t.Helper()
	rt := MustNew(cfg)
	defer rt.Close()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, n) })
	if want := fibSerial(n); got != want {
		t.Fatalf("fib(%d) = %d, want %d", n, got, want)
	}
	return rt.Stats().VesselHighWater
}

// TestVesselPopulationBounded: with no budget on vessels, the computation
// bounds the population — eager and adaptive fib(n) never hold more live
// vessels than the busy-leaves bound. The bound has teeth: the planted
// Chaos.LeakVessel bug, which strands finished vessels, must break it.
func TestVesselPopulationBounded(t *testing.T) {
	for _, mode := range []SpawnMode{SpawnEager, SpawnAdaptive} {
		for _, n := range []int{12, 20, 24} {
			for _, w := range []int{1, 2, 4} {
				cfg := Config{Name: "nowa", Workers: w, Deque: deque.CL, Join: WaitFree, Spawn: mode}
				if hw, bound := vesselHighWater(t, cfg, n), populationBound(w, n); hw > bound {
					t.Errorf("%v fib(%d) on %d workers: vessel high water %d, bound %d", mode, n, w, hw, bound)
				}
			}
		}
	}
	leaky := Config{Name: "nowa", Workers: 1, Deque: deque.CL, Join: WaitFree, Spawn: SpawnEager,
		Chaos: &chaos.Chaos{LeakVessel: 24}}
	if hw, bound := vesselHighWater(t, leaky, 24), populationBound(1, 24); hw <= bound {
		t.Errorf("leaking vessels: high water %d stayed within bound %d; the bound cannot catch a leak", hw, bound)
	}
}
