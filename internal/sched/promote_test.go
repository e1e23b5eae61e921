package sched

import (
	"fmt"
	"testing"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/deque"
	"nowa/internal/replay"
	"nowa/internal/trace"
)

// TestPromoteRecordStateMachine drives the thief side of the promotion
// protocol against a fabricated record, one phase at a time: interest
// must land on pending and inline rounds, must leave idle (and
// stale-round) records alone, and must preserve the round bits it read.
func TestPromoteRecordStateMachine(t *testing.T) {
	rt := NewNowa(1)
	defer rt.Close()

	var c cont
	c.lazy = true

	// Idle record: nothing to claim.
	c.state.Store(5 << recRoundShift) // round 5, phase idle
	rt.claimRecord(0, &c)
	if st := c.state.Load(); st != 5<<recRoundShift {
		t.Fatalf("claim on idle record changed state to %#x", st)
	}

	// Pending round: the CAS claims it — the owner's commit must fail.
	pending := 6<<recRoundShift | recPending
	c.state.Store(pending)
	rt.claimRecord(0, &c)
	if st := c.state.Load(); st != 6<<recRoundShift|recInterest {
		t.Fatalf("claim on pending = %#x, want interest with round 6", st)
	}
	if c.state.CompareAndSwap(pending, 6<<recRoundShift|recInline) {
		t.Fatal("owner commit CAS succeeded after a thief claim")
	}

	// Inline round: interest folds into the owner's resolve swap.
	c.state.Store(7<<recRoundShift | recInline)
	rt.claimRecord(0, &c)
	if st := c.state.Load(); st != 7<<recRoundShift|recInterest {
		t.Fatalf("claim on inline = %#x, want interest with round 7", st)
	}
	if old := c.state.Swap(7 << recRoundShift); old&recPhaseMask != recInterest {
		t.Fatalf("resolve swap observed phase %d, want interest", old&recPhaseMask)
	}

	if got := rt.rec.Worker(0)[trace.InterestSignals].Load(); got != 2 {
		t.Fatalf("InterestSignals = %d, want 2 (idle claim must not count)", got)
	}
}

// promoteWorkloads is the kernel set the promotion tests agree on.
func promoteWorkloads() []apps.Benchmark {
	return []apps.Benchmark{
		apps.NewFib(apps.Test),
		apps.NewQuicksort(apps.Test),
	}
}

// TestPromoteChaosEverySpawn forces promotion on every single spawn via
// the StealInterest injection at rate 1024: a spawn either rolls and is
// promoted or rides the eager burst a promotion armed, so the run must
// behave exactly like the eager runtime — zero inline commits, every
// spawn conserved — across both join protocols.
func TestPromoteChaosEverySpawn(t *testing.T) {
	for _, cfg := range variantConfigs(4, "nowa", "fibril") {
		cfg := cfg
		cfg.Chaos = &Chaos{StealInterest: 1024}
		t.Run(cfg.Name, func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			for _, app := range promoteWorkloads() {
				app.Prepare()
				rt.Run(app.Run)
				if err := app.Verify(); err != nil {
					t.Fatalf("%s: %v", app.Name(), err)
				}
			}
			c := rt.Counters()
			if c.InlineRuns != 0 {
				t.Fatalf("InlineRuns = %d, want 0 with every spawn promoted", c.InlineRuns)
			}
			if c.Spawns == 0 || c.PromotedSpawns == 0 || c.PromotedSpawns > c.Spawns {
				t.Fatalf("PromotedSpawns = %d of %d spawns, want some and no more than all", c.PromotedSpawns, c.Spawns)
			}
			if c.LocalResumes+c.Steals != c.Spawns {
				t.Fatalf("LocalResumes(%d)+Steals(%d) != Spawns(%d)",
					c.LocalResumes, c.Steals, c.Spawns)
			}
		})
	}
}

// TestPromoteModesEquivalent runs the same kernels under both spawn
// modes on one and four workers: identical results, the conservation
// invariant, all tokens retired and every deque empty afterwards — the
// serial-equivalence obligation of lazy promotion.
func TestPromoteModesEquivalent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, mode := range []SpawnMode{SpawnEager, SpawnAdaptive} {
			mode := mode
			cfg := Config{
				Name: "nowa", Workers: workers,
				Deque: deque.CL, Join: WaitFree, Spawn: mode,
			}
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				rt := MustNew(cfg)
				defer rt.Close()
				for _, app := range promoteWorkloads() {
					app.Prepare()
					rt.Run(app.Run)
					if err := app.Verify(); err != nil {
						t.Fatalf("%s under %v: %v", app.Name(), mode, err)
					}
				}
				c := rt.Counters()
				if err := c.CheckQuiescent(); err != nil {
					t.Fatalf("conservation: %v", err)
				}
				if mode == SpawnEager && c.InlineRuns != 0 {
					t.Fatalf("eager mode committed %d inline runs", c.InlineRuns)
				}
				if mode != SpawnEager && workers == 1 && c.InlineRuns != c.Spawns {
					t.Fatalf("single-worker lazy: InlineRuns(%d) != Spawns(%d) — something promoted with no thief alive",
						c.InlineRuns, c.Spawns)
				}
				if err := rt.CheckIdle(); err != nil {
					t.Fatalf("not idle after the runs (stale records must drain): %v", err)
				}
			})
		}
	}
}

// TestPromoteInterestUnderLoad hammers the live promotion path: four
// workers, adaptive mode, a spawn-heavy kernel, so real thieves pop real
// records and land real steal-interest CASes mid-inline-run. The run is
// recorded and then replayed; the promotion-heavy schedule must drive to
// the same answer with zero divergences.
func TestPromoteInterestUnderLoad(t *testing.T) {
	cfg := Config{Name: "nowa", Workers: 4, Deque: deque.CL, Join: WaitFree}
	rec := replay.NewRecorder(cfg.Workers, 1<<16)
	cfg.Record = rec
	rt := MustNew(cfg)
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	c := rt.Counters()
	rt.Close()
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if c.InlineRuns == 0 {
		t.Fatal("no inline runs under adaptive mode — the lazy path never engaged")
	}
	log := rec.Snapshot()
	if log.Truncated() {
		t.Fatal("capture ring overflowed; grow the test recorder")
	}

	recfg := Config{Name: "nowa", Workers: 4, Deque: deque.CL, Join: WaitFree, Replay: log}
	rrt := MustNew(recfg)
	defer rrt.Close()
	app.Prepare()
	rrt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("replay verify: %v", err)
	}
	if d, on := rrt.ReplayDivergences(); !on || d != 0 {
		t.Fatalf("replay divergences = %d (replaying=%v), want 0", d, on)
	}
}

// TestPromoteSuspendSignal checks the third promotion trigger: a
// suspension on a vessel must arm the eager burst and log a
// promote[suspend] decision. Children block each other through a scope
// whose continuation must be stolen, which forces the explicit sync to
// suspend deterministically (the mapping_test scenario, eager by
// necessity); the scope's next spawns must then be eager even under the
// adaptive default.
func TestPromoteSuspendSignal(t *testing.T) {
	cfg := Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree}
	rec := replay.NewRecorder(cfg.Workers, 1<<15)
	cfg.Record = rec
	rt := MustNew(cfg)
	defer rt.Close()

	release := make(chan struct{})
	rt.Run(func(c api.Ctx) {
		s := c.Scope().(*scope)
		// Eager child that blocks until the continuation has run: the
		// continuation must be stolen, and the Sync below must suspend.
		s.spawn(func(api.Ctx) { <-release }, true)
		close(release)
		s.Sync()
		// The suspension above armed the burst: this lazy-eligible spawn
		// must take the eager handoff.
		s.Spawn(func(api.Ctx) {})
		s.Sync()
	})
	c := rt.Counters()
	if c.Suspensions == 0 {
		t.Fatal("scenario did not suspend; the test lost its premise")
	}
	if c.InlineRuns != 0 {
		t.Fatalf("InlineRuns = %d, want 0 (post-suspension spawn must be eager)", c.InlineRuns)
	}
	found := false
	for _, evs := range rec.Snapshot().PerWorker {
		for _, ev := range evs {
			if ev.Kind == replay.KPromote && ev.Site == replay.PromoteSuspend {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no promote[suspend] decision in the schedule log")
	}
}
