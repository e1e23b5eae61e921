package sched

import (
	"fmt"
	"testing"

	"nowa/internal/apps"
	"nowa/internal/replay"
)

// chaosVariants are the configurations the chaos suite stresses: the
// flagship wait-free+CL pairing, the wait-free+THE ablation, and the
// lock-based Fibril baseline.
func chaosVariants(seed int64) []Config {
	ch := &Chaos{
		Seed:           seed,
		StealDelay:     64,
		StealFail:      64,
		PopBottomDelay: 64,
		SyncDelay:      64,
		DelaySpins:     8,
	}
	cfgs := variantConfigs(4, "nowa", "nowa-the", "fibril")
	for i := range cfgs {
		cfgs[i].Chaos = ch
	}
	return cfgs
}

// TestChaosStressVariants runs real fork/join kernels under seeded fault
// injection and checks the protocol invariants afterwards. The injected
// perturbations (delays and abandoned steals) are always legal schedules,
// so any violation here is a genuine protocol bug — this is the suite
// meant to run under -race (see the Makefile verify target).
func TestChaosStressVariants(t *testing.T) {
	workloads := []apps.Benchmark{
		apps.NewFib(apps.Test),
		apps.NewNQueens(apps.Test),
		apps.NewQuicksort(apps.Test),
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, cfg := range chaosVariants(seed) {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				rt := MustNew(cfg)
				defer rt.Close()
				runs := 0
				for _, app := range workloads {
					app.Prepare()
					rt.Run(app.Run)
					runs++
					if err := app.Verify(); err != nil {
						t.Fatalf("%s: %v", app.Name(), err)
					}
				}
				c := rt.Counters()
				// Invariant: every spawn is resolved exactly once — inline
				// (lazy, never promoted), by a local resume, or by a steal.
				if err := c.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
				// Invariant: a popBottom miss (implicit sync) happens for
				// every steal, plus once per run for the root's final pop
				// of its empty deque.
				if c.ImplicitSyncs != c.Steals+int64(runs) {
					t.Fatalf("ImplicitSyncs(%d) != Steals(%d)+runs(%d)",
						c.ImplicitSyncs, c.Steals, runs)
				}
				// Invariant: all worker tokens retired, no continuation
				// left behind, nothing leaked.
				if err := rt.CheckIdle(); err != nil {
					t.Fatalf("not idle after the runs: %v", err)
				}
			})
		}
	}
}

// TestChaosStreamsPerSite: each site rolls on its own stream, so the
// outcomes at one site are a function of the seed and the slot alone.
// Two runtimes share a chaos seed; one rolls site A alone, the other
// rolls site B between A's rolls, and A's outcomes must match roll for
// roll. With one stream per slot, every B roll would shift A's draws.
func TestChaosStreamsPerSite(t *testing.T) {
	const a, b = replay.SiteSyncDelay, replay.SitePopBottom
	mk := func() *Runtime {
		rt := MustNew(Config{Workers: 2, Chaos: &Chaos{Seed: 5, SyncDelay: 512, PopBottomDelay: 512}})
		t.Cleanup(rt.Close)
		return rt
	}
	alone, mixed := mk(), mk()
	fired := 0
	for i := 0; i < 256; i++ {
		for j := 0; j < i%3; j++ {
			mixed.chaosRoll(1, b)
		}
		got, want := mixed.chaosRoll(1, a), alone.chaosRoll(1, a)
		if got != want {
			t.Fatalf("roll %d at %s: %v with %s rolls between, %v alone",
				i, replay.SiteName(a), got, replay.SiteName(b), want)
		}
		if want {
			fired++
		}
	}
	if fired == 0 || fired == 256 {
		t.Fatalf("%d of 256 rolls at rate 512/1024 fired: the stream is stuck", fired)
	}
}
