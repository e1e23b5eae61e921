package sched

import (
	"fmt"
	"testing"

	"nowa/internal/apps"
	"nowa/internal/cactus"
	"nowa/internal/deque"
)

// overloadVariants are the budgeted configurations the overload suite
// exercises: both join protocols and both deques, so the token-keeping
// suspension is covered under the wait-free counter and the Fibril
// frame mutex alike.
func overloadVariants(mutate func(*Config)) []Config {
	cfgs := variantConfigs(4, "nowa", "nowa-the", "fibril")
	for i := range cfgs {
		mutate(&cfgs[i])
	}
	return cfgs
}

// verifyWorkloads runs fib and quicksort on rt and fails the test on any
// wrong result — the degradation paths must preserve answers exactly.
func verifyWorkloads(t *testing.T, rt *Runtime) {
	t.Helper()
	for _, app := range []apps.Benchmark{apps.NewFib(apps.Test), apps.NewQuicksort(apps.Test)} {
		app.Prepare()
		rt.Run(app.Run)
		if err := app.Verify(); err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
	}
}

// TestOverloadHighWater is the central budget guarantee: with MaxVessels
// set, a deeply nested workload never holds more live vessel goroutines
// than the budget, and still computes correct results.
func TestOverloadHighWater(t *testing.T) {
	for _, cfg := range overloadVariants(func(c *Config) { c.MaxVessels = c.Workers + 2 }) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			verifyWorkloads(t, rt)
			st := rt.Stats()
			if st.VesselHighWater > int64(cfg.MaxVessels) {
				t.Fatalf("vessel high water %d exceeds MaxVessels %d", st.VesselHighWater, cfg.MaxVessels)
			}
			if st.VesselHighWater < int64(cfg.Workers) {
				t.Fatalf("vessel high water %d below Workers %d (startup creates one per token)",
					st.VesselHighWater, cfg.Workers)
			}
			if err := rt.CheckIdle(); err != nil {
				t.Fatalf("not idle after the runs: %v", err)
			}
		})
	}
}

// TestOverloadAllInline pins the budget to the absolute minimum on one
// worker: the only vessel is the root's, so every spawn must degrade to
// inline execution — effectively the serial elision — with the correct
// answer and an accurate DegradedSpawns tally. SpawnEager keeps this a
// budget test: lazy spawns request no vessel in the first place, so
// under the default mode a one-vessel budget simply never binds.
func TestOverloadAllInline(t *testing.T) {
	for _, cfg := range overloadVariants(func(c *Config) { c.Workers = 1; c.MaxVessels = 1; c.Spawn = SpawnEager }) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			verifyWorkloads(t, rt)
			c := rt.Counters()
			if c.Spawns != 0 {
				t.Fatalf("Spawns = %d, want 0 (every spawn must degrade under a one-vessel budget)", c.Spawns)
			}
			if c.DegradedSpawns == 0 {
				t.Fatal("DegradedSpawns = 0, want > 0")
			}
			if st := rt.Stats(); st.VesselHighWater != 1 {
				t.Fatalf("vessel high water = %d, want 1", st.VesselHighWater)
			}
		})
	}
}

// TestOverloadChaosAllocFail injects simulated vessel-budget exhaustion
// into Spawn at a high rate and checks that the mixed inline/parallel
// execution stays correct and keeps the continuation conservation
// invariant: every *published* continuation is resumed locally or stolen
// exactly once (degraded spawns publish nothing).
func TestOverloadChaosAllocFail(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, cfg := range overloadVariants(func(c *Config) {
			c.Chaos = &Chaos{Seed: 0, AllocFail: 256}
			c.Seed = 0
		}) {
			cfg := cfg
			cfg.Seed = seed
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				rt := MustNew(cfg)
				defer rt.Close()
				verifyWorkloads(t, rt)
				c := rt.Counters()
				if c.DegradedSpawns == 0 {
					t.Fatal("DegradedSpawns = 0, want > 0 under AllocFail chaos")
				}
				if err := c.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
				if err := rt.CheckIdle(); err != nil {
					t.Fatalf("not idle after the runs: %v", err)
				}
			})
		}
	}
}

// TestOverloadChaosSyncVesselFail forces *every* suspending sync to keep
// its worker token (rate 1024/1024): the last-joining child must deliver
// the keep-your-token sentinel and go stealing on its own token. Run
// under -race this is the suite that hammers the keepToken
// happens-before edge through both join protocols.
func TestOverloadChaosSyncVesselFail(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, cfg := range overloadVariants(func(c *Config) {
			c.Chaos = &Chaos{AllocFail: 0, SyncVesselFail: 1024}
		}) {
			cfg := cfg
			cfg.Seed = seed
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				rt := MustNew(cfg)
				defer rt.Close()
				verifyWorkloads(t, rt)
				c := rt.Counters()
				if c.TokenKeepSyncs != c.Suspensions {
					t.Fatalf("TokenKeepSyncs(%d) != Suspensions(%d) at rate 1024",
						c.TokenKeepSyncs, c.Suspensions)
				}
				if err := rt.CheckIdle(); err != nil {
					t.Fatalf("not idle after the runs: %v", err)
				}
			})
		}
	}
}

// TestOverloadMixedChaos turns on every degradation injection at once on
// top of a tight budget — the worst day the budget can have.
func TestOverloadMixedChaos(t *testing.T) {
	for _, cfg := range overloadVariants(func(c *Config) {
		c.MaxVessels = c.Workers + 1
		c.Chaos = &Chaos{AllocFail: 128, SyncVesselFail: 256, StealDelay: 64, PopBottomDelay: 64, DelaySpins: 4}
	}) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			verifyWorkloads(t, rt)
			if st := rt.Stats(); st.VesselHighWater > int64(cfg.MaxVessels) {
				t.Fatalf("vessel high water %d exceeds MaxVessels %d", st.VesselHighWater, cfg.MaxVessels)
			}
		})
	}
}

// TestOverloadSoftStackPressure bounds the stack pool in soft mode: cap
// exhaustion latches pressure that sheds spawns inline instead of
// stalling thieves (the CapAbort comparator behaviour). Results must
// stay correct and the runtime reusable once the pressure clears.
func TestOverloadSoftStackPressure(t *testing.T) {
	for _, cfg := range overloadVariants(func(c *Config) {
		c.Stacks = cactus.Config{GlobalCap: 2, CapMode: cactus.CapSoft}
	}) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			// Latch pressure deterministically by draining the cap before
			// the run, so every spawn observes the latch. (Inferring the
			// latch from FailedGets after the fact is racy: a thief's
			// pool miss at the tail of the workload can land after the
			// last spawn already ran, latching pressure nothing sees.)
			var held []*cactus.Stack
			for {
				s, ok := rt.pool.Get(0)
				if !ok {
					break
				}
				held = append(held, s)
			}
			if len(held) != 2 {
				t.Fatalf("drained %d stacks from a GlobalCap 2 pool", len(held))
			}
			verifyWorkloads(t, rt)
			st := rt.Stats()
			if st.Stacks.Allocated > 2 {
				t.Fatalf("stacks allocated = %d, want <= GlobalCap 2", st.Stacks.Allocated)
			}
			if st.DegradedSpawns == 0 {
				t.Error("pressure held for the whole run but no spawn degraded")
			}
			for _, s := range held {
				rt.pool.Put(0, s)
			}
			if rt.pool.Pressure() {
				t.Fatal("pressure latch survived the Puts that restored capacity")
			}
			verifyWorkloads(t, rt)
		})
	}
}

// TestOverloadBudgetReuse runs a budgeted runtime repeatedly: recycled
// vessels cost nothing against the budget, so later runs must behave
// identically and the high water must stay put.
func TestOverloadBudgetReuse(t *testing.T) {
	cfg := Config{Name: "nowa", Workers: 4, Deque: deque.CL, Join: WaitFree, MaxVessels: 6}
	rt := MustNew(cfg)
	defer rt.Close()
	for i := 0; i < 5; i++ {
		verifyWorkloads(t, rt)
	}
	st := rt.Stats()
	if st.VesselHighWater > 6 {
		t.Fatalf("vessel high water %d exceeds MaxVessels 6 across reuse", st.VesselHighWater)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("not idle across reuse: %v", err)
	}
}
