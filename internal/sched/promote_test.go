package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/deque"
	"nowa/internal/replay"
	"nowa/internal/trace"
)

// awaitCond yields until cond holds; after a generous deadline it marks
// the test failed and reports false (it runs on strands, where Fatal
// would strand the worker token), so a lost signal fails instead of
// hanging.
func awaitCond(t *testing.T, what string, cond func() bool) bool {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestPromoteDemandPostRules watches a lone thief poll a spawn-free root:
// on a lazy runtime it must post demand on the root's token and never on
// the token it holds itself (it draws itself as victim every other
// attempt); on an eager runtime it must post nothing at all.
func TestPromoteDemandPostRules(t *testing.T) {
	for _, mode := range []SpawnMode{SpawnAdaptive, SpawnEager} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt := MustNew(Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree, Spawn: mode})
			defer rt.Close()
			lazy := mode != SpawnEager
			rt.Run(func(api.Ctx) {
				// 48 failed attempts all happen before the thief's first park,
				// and miss a self-draw with probability 2^-48.
				awaitCond(t, "48 failed steals", func() bool {
					return rt.rec.Worker(1)[trace.FailedSteals].Load() >= 48
				})
				if got := rt.demand[1].n.Load(); got != 0 {
					t.Errorf("thief posted demand on its own token (word = %d)", got)
				}
				if got := rt.demand[0].n.Load() == 1; got != lazy {
					t.Errorf("demand posted on the polled token: %v, want %v", got, lazy)
				}
			})
			// The root's own strand start may drop the thief's first post,
			// so a lazy run lands one or two; an eager one lands none.
			if got := rt.Counters().InterestSignals; (got > 0) != lazy || got > 2 {
				t.Errorf("InterestSignals = %d on a %v runtime", got, mode)
			}
		})
	}
}

// TestPromoteDemandHonouredOnce posts demand by hand on a single-worker
// runtime, where no thief exists to interfere: the token's very next lazy
// spawn must answer it — promoted, burst armed, word cleared — a second
// post on a set word must not land, and the spawns before it stay inline.
func TestPromoteDemandHonouredOnce(t *testing.T) {
	rt := NewNowa(1)
	defer rt.Close()
	rt.Run(func(c api.Ctx) {
		p := c.(*Proc)
		s := c.Scope()
		s.Spawn(func(api.Ctx) {})
		s.Sync()
		if p.v.pend[trace.InlineRuns] != 1 || p.v.pend[trace.PromotedSpawns] != 0 {
			t.Fatalf("undemanded spawn: %d inline, %d promoted, want 1 and 0",
				p.v.pend[trace.InlineRuns], p.v.pend[trace.PromotedSpawns])
		}
		rt.postDemand(0, 0)
		rt.postDemand(0, 0)
		s.Spawn(func(api.Ctx) {})
		s.Sync()
		if p.v.eagerBurst != eagerBurstLen {
			t.Errorf("eagerBurst = %d after the answered demand, want %d", p.v.eagerBurst, eagerBurstLen)
		}
		if got := rt.demand[0].n.Load(); got != 0 {
			t.Errorf("demand word = %d after it was answered, want 0", got)
		}
	})
	c := rt.Counters()
	if c.PromotedSpawns != 1 || c.InterestSignals != 1 || c.InlineRuns != 1 || c.Spawns != 2 {
		t.Fatalf("promoted=%d interest=%d inline=%d spawns=%d, want 1 1 1 2",
			c.PromotedSpawns, c.InterestSignals, c.InlineRuns, c.Spawns)
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

// TestPromoteDemandDroppedAtStrandStart is the serve-high sentinel: both
// tokens of an idle two-worker service park, each leaving demand posted
// on the other's token. The submission that wakes one is taken by it, and
// the take is a strand start: its first spawn must run inline — the
// demand the other thief posted was for a strand that is no longer there.
func TestPromoteDemandDroppedAtStrandStart(t *testing.T) {
	rt := MustNew(Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree})
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	awaitCond(t, "both tokens to park with demand posted on each other", func() bool {
		for w := 0; w < 2; w++ {
			if rt.rec.Worker(w)[trace.ThiefParks].Load() != 1 || rt.demand[w].n.Load() != 1 {
				return false
			}
		}
		return true
	})
	sub, err := rt.Submit(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(api.Ctx) {})
		s.Sync()
	}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Close() // the strand flushes its tallies after resolving the future
	if c := rt.Counters(); c.PromotedSpawns != 0 || c.InlineRuns != 1 {
		t.Fatalf("promoted=%d inline=%d, want 0 and 1: a stale demand reached the submission",
			c.PromotedSpawns, c.InlineRuns)
	}
}

// TestPromoteBurstDroppedAtTake: a one-worker service runs its
// submissions back to back on one vessel, and an eager burst armed under
// one of them must not tax the next — the take drops it, as strand start
// drops demand.
func TestPromoteBurstDroppedAtTake(t *testing.T) {
	rt := MustNew(Config{Name: "nowa", Workers: 1, Deque: deque.CL, Join: WaitFree})
	defer rt.Close()
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	var first, second *vessel
	for _, task := range []func(api.Ctx){
		func(c api.Ctx) {
			first = c.(*Proc).v
			first.eagerBurst = eagerBurstLen // what a promotion leaves behind
		},
		func(c api.Ctx) {
			second = c.(*Proc).v
			s := c.Scope()
			s.Spawn(func(api.Ctx) {})
			s.Sync()
		},
	} {
		sub, err := rt.Submit(task, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if first != second {
		t.Fatal("the two submissions ran on different vessels; the test lost its premise")
	}
	rt.Close() // the strand flushes its tallies after resolving the future
	if c := rt.Counters(); c.InlineRuns != 1 || c.Spawns != 1 {
		t.Fatalf("inline=%d spawns=%d, want 1 and 1: the last submission's burst reached this one", c.InlineRuns, c.Spawns)
	}
}

// TestPromoteParkedThievesWoken parks both thieves of a three-worker
// runtime without either having polled anybody: a victim script has
// each draw itself as victim — where a thief posts nothing — until its
// spins run out. The demand they post as part of parking is
// then the only signal the spawn-dense root can get: a lazy spawn
// publishes nothing and wakes nobody, so without it the root runs inline
// forever beside two sleeping tokens. Both must wake, and both steal.
func TestPromoteParkedThievesWoken(t *testing.T) {
	const workers = 3
	script := make([][]int, workers)
	for w := 1; w < workers; w++ {
		for i := 0; i <= spinBeforePark; i++ { // the attempt after the last yield parks
			script[w] = append(script[w], w)
		}
	}
	rt := MustNew(Config{Name: "nowa", Workers: workers, Deque: deque.CL, Join: WaitFree})
	rt.victimScript = script
	defer rt.Close()
	tally := func(id trace.ID) (n1, n2 int64) {
		return rt.rec.Worker(1)[id].Load(), rt.rec.Worker(2)[id].Load()
	}
	var sink int
	rt.Run(func(c api.Ctx) {
		ok := awaitCond(t, "both thieves to park", func() bool {
			p1, p2 := tally(trace.ThiefParks)
			return p1 == 1 && p2 == 1
		})
		if !ok {
			return
		}
		awaitCond(t, "both parked thieves to wake and steal", func() bool {
			s := c.Scope()
			s.Spawn(func(api.Ctx) {
				for i := 0; i < 2000; i++ {
					sink += i
				}
			})
			s.Sync()
			w1, w2 := tally(trace.ThiefWakeups)
			s1, s2 := tally(trace.Steals)
			return w1 >= 1 && w2 >= 1 && s1 >= 1 && s2 >= 1
		})
	})
	if err := rt.CheckIdle(); err != nil {
		t.Fatal(err)
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
// records and land real steal-interest CASes mid-inline-run. The
// promotion-heavy schedule must give the serial answer with every spawn
// conserved.
func TestPromoteInterestUnderLoad(t *testing.T) {
	rt := MustNew(Config{Name: "nowa", Workers: 4, Deque: deque.CL, Join: WaitFree})
	defer rt.Close()
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	c := rt.Counters()
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if c.InlineRuns == 0 {
		t.Fatal("no inline runs under adaptive mode — the lazy path never engaged")
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
		s.spawnEager(func(api.Ctx) { <-release })
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
