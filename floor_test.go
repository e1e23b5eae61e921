// Spawn-floor regression gate for lazy vessel promotion.
//
// The eager vessel handoff pays two goroutine switches per spawn — the
// "Gosched floor" of the vessel model, 300-600 ns/round. Lazy vessel
// promotion (DESIGN.md §14) takes the no-steal spawn off every shared
// structure: one load of the token's steal-demand word, the child run
// inline, a sync that finds nothing stolen. This test locks that in as
// a CI gate: generous enough (a slack multiplier over the acceptance
// target) that shared-host noise cannot flake it, tight enough that a
// goroutine switch, a deque round trip or a locked instruction per
// spawn coming back onto the path fails loudly.
package nowa_test

import (
	"testing"
	"time"

	"nowa"
)

// spawnFloorBudget is the gate: the acceptance target for the no-steal
// lazy spawn is 40 ns/op (measured ~20 on the reference host); the 4x
// slack absorbs slower or noisier CI hosts without ever letting a
// reintroduced goroutine switch (two of them: 300-600 ns) pass. It is a
// coarse tripwire — a publish-and-retire round trip through the deque
// (~70 ns on the reference host only) may still slip under it elsewhere;
// the fine-grained guard is the benchmark ledger's sched.spawn_sync_ns.
const spawnFloorBudget = 4 * 40 * time.Nanosecond

// measureSpawnNs times one steady-state Spawn/Sync round trip on one
// worker, best of several samples (best-of is the right statistic for a
// lower-bound gate: noise only ever adds time).
func measureSpawnNs(rt nowa.Runtime) float64 {
	const samples, iters = 5, 50_000
	best := 0.0
	rt.Run(func(c nowa.Ctx) {
		for i := 0; i < 256; i++ { // warm the vessel pool, scope ring, deque
			s := c.Scope()
			s.Spawn(func(nowa.Ctx) {})
			s.Sync()
		}
		for r := 0; r < samples; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				s := c.Scope()
				s.Spawn(func(nowa.Ctx) {})
				s.Sync()
			}
			ns := float64(time.Since(start).Nanoseconds()) / iters
			if best == 0 || ns < best {
				best = ns
			}
		}
	})
	return best
}

// TestSpawnFloor gates the no-steal spawn cost of the flagship runtime
// under the default (lazy) spawn policy. Allocation bounds live in
// alloc_test.go; this is the latency half of the floor guarantee.
func TestSpawnFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	for _, v := range []nowa.Variant{nowa.VariantNowa, nowa.VariantNowaTHE} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := nowa.New(v, 1)
			defer nowa.Close(rt)
			got := measureSpawnNs(rt)
			t.Logf("%s: no-steal spawn %.1f ns/op (budget %v)", v, got, spawnFloorBudget)
			if got > float64(spawnFloorBudget.Nanoseconds()) {
				t.Errorf("%s: no-steal spawn %.1f ns/op exceeds the %v gate — "+
					"shared-memory traffic or a goroutine switch is back on the lazy fast path", v, got, spawnFloorBudget)
			}
		})
	}
}

// TestSpawnFloorEagerStillWorks pins the other side: the explicit
// SpawnEager policy must still take the full handoff (the gate here is
// only that it works and stays within an order of magnitude of the old
// behaviour, not that it is fast).
func TestSpawnFloorEagerStillWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	rt := nowa.NewLimited(nowa.VariantNowa, 1, nowa.Limits{Spawn: nowa.SpawnEager})
	defer nowa.Close(rt)
	got := measureSpawnNs(rt)
	t.Logf("nowa/eager: spawn %.1f ns/op", got)
	if got > 40*150 {
		t.Errorf("eager spawn %.1f ns/op is pathological", got)
	}
}
