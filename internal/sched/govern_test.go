package sched

import (
	"cmp"
	"strings"
	"sync"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/deque"
)

func governRuntime(t *testing.T) *Runtime {
	t.Helper()
	return MustNew(Config{Name: "nowa", Workers: 4, Deque: deque.CL, Join: WaitFree})
}

// TestGovernStatsReconcile checks the leak accounting on the healthy
// path: after a run drains, every vessel and stack ever created is back
// in a free list and the reconciliation reports zero leaked.
func TestGovernStatsReconcile(t *testing.T) {
	rt := governRuntime(t)
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

// TestGovernStatsMidRun checks that mid-run snapshots refuse to read the
// owner-local caches: pooled reports -1 and no leak is computed.
func TestGovernStatsMidRun(t *testing.T) {
	rt := governRuntime(t)
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

// TestGovernTrimIdle trims an idle runtime all the way to one vessel and
// proves it grows back on the next run, correct as ever.
func TestGovernTrimIdle(t *testing.T) {
	rt := governRuntime(t)
	defer rt.Close()
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	before := rt.Stats()
	reclaimed := rt.TrimToward(1, 0)
	st := rt.Stats()
	if st.VesselsLive != 1 {
		t.Fatalf("VesselsLive after idle trim = %d, want 1 (before: %d, reclaimed %d)",
			st.VesselsLive, before.VesselsLive, reclaimed)
	}
	if st.VesselsTrimmed != before.VesselsLive-1 {
		t.Fatalf("VesselsTrimmed = %d, want %d", st.VesselsTrimmed, before.VesselsLive-1)
	}
	if st.Stacks.Allocated != 0 {
		t.Fatalf("stacks allocated after Trim(0) = %d, want 0", st.Stacks.Allocated)
	}
	// The runtime must be fully usable after a trim.
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("run after trim: %v", err)
	}
	if st := rt.Stats(); st.VesselsLeaked != 0 {
		t.Fatalf("VesselsLeaked after regrow = %d, want 0", st.VesselsLeaked)
	}
}

// TestGovernTrimMidRun hammers TrimToward concurrently with a live run:
// mid-run trims may only touch the mutex-guarded global structures, and
// must never deadlock or corrupt the computation.
func TestGovernTrimMidRun(t *testing.T) {
	rt := governRuntime(t)
	defer rt.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.TrimToward(1, 1)
				// Unthrottled trimming livelocks the run into pure
				// vessel churn (every trimmed vessel is recreated at the
				// next spawn); a governor ticks, it does not spin.
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 5; i++ {
		app := apps.NewFib(apps.Test)
		app.Prepare()
		rt.Run(app.Run)
		if err := app.Verify(); err != nil {
			t.Fatalf("run %d under concurrent trims: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if st := rt.Stats(); st.VesselsLeaked != 0 {
		t.Fatalf("VesselsLeaked = %d after concurrent trims, want 0", st.VesselsLeaked)
	}
}

// TestGovernTrimBudgetInteraction verifies that trimming returns budget
// headroom: under a hard budget, trimmed vessels make room for fresh
// creations (the CAS reservation must see the decremented live count).
func TestGovernTrimBudgetInteraction(t *testing.T) {
	rt := MustNew(Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree, MaxVessels: 4})
	defer rt.Close()
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	rt.TrimToward(1, 0)
	if st := rt.Stats(); st.VesselsLive != 1 {
		t.Fatalf("VesselsLive = %d, want 1", st.VesselsLive)
	}
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.VesselHighWater > 4 {
		t.Fatalf("high water %d exceeds budget 4 after trim/regrow", st.VesselHighWater)
	}
}

// TestGovernStartGovernor runs the full loop against an impossible
// one-byte budget (always severe pressure) and a floor of one: the
// governor must trim the idle runtime down to a single vessel, report
// its trims, and leave the runtime perfectly reusable.
func TestGovernStartGovernor(t *testing.T) {
	rt := governRuntime(t)
	defer rt.Close()
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)

	var mu sync.Mutex
	var reports []TrimReport
	g := rt.StartGovernor(GovernorConfig{
		Tick:         time.Millisecond,
		MemoryBudget: 1, // one byte: every evaluation is severe pressure
		VesselFloor:  1,
		StackFloor:   1,
		OnTrim: func(r TrimReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
		},
	})
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().VesselsLive > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("governor did not trim to the floor: %+v", rt.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	g.Stop()
	if g.Actions() == 0 {
		t.Fatal("governor reported zero trims")
	}
	mu.Lock()
	n := len(reports)
	last := reports[n-1]
	mu.Unlock()
	if n == 0 {
		t.Fatal("OnTrim never called")
	}
	if last.Severity != gradeSevere {
		t.Fatalf("severity = %v, want severe at a one-byte budget", last.Severity)
	}
	if !strings.Contains(last.Name, "nowa") {
		t.Fatalf("report name = %q, want the runtime name", last.Name)
	}
	// Fully usable after the governor shrank it.
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("run after governor trims: %v", err)
	}
}

// TestGovernGovernorDuringRuns keeps the governor live across real runs:
// pressure trims race Run start/finish and the owner-local cache rule
// (idle only, under govMu) must hold throughout.
func TestGovernGovernorDuringRuns(t *testing.T) {
	rt := governRuntime(t)
	defer rt.Close()
	g := rt.StartGovernor(GovernorConfig{
		Tick:         time.Millisecond,
		MemoryBudget: 1,
		VesselFloor:  1,
		StackFloor:   1,
		OnTrim:       func(TrimReport) {},
	})
	defer g.Stop()
	for i := 0; i < 10; i++ {
		app := apps.NewQuicksort(apps.Test)
		app.Prepare()
		rt.Run(app.Run)
		if err := app.Verify(); err != nil {
			t.Fatalf("run %d with live governor: %v", i, err)
		}
	}
	if st := rt.Stats(); st.VesselsLeaked != 0 {
		t.Fatalf("VesselsLeaked = %d with live governor, want 0", st.VesselsLeaked)
	}
}

// TestGovernTrimAfterClose: a straggling governor tick after Close must
// be a no-op, not a crash or a double-stop.
func TestGovernTrimAfterClose(t *testing.T) {
	rt := governRuntime(t)
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	rt.Close()
	if n := rt.TrimToward(0, 0); n != 0 {
		// Stacks may still trim (the pool has no closed state), but no
		// vessel may be stopped twice.
		if st := rt.Stats(); st.VesselsTrimmed != 0 {
			t.Fatalf("trim after Close stopped %d vessels", st.VesselsTrimmed)
		}
	}
}

// gradeCase is one pressure evaluation: usage against the budget
// resolved the way the pressure row resolves it (an explicit budget,
// else the process limit).
type gradeCase struct {
	name              string
	used, budget, lim int64
	want              int
}

func checkGrades(t *testing.T, cases []gradeCase) {
	t.Helper()
	for _, c := range cases {
		if got := grade(c.used, cmp.Or(c.budget, c.lim)); got != c.want {
			t.Errorf("%s: grade = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestGovernGradesSeverity: no pressure below 85 % of the budget, mild
// from there, severe at the budget.
func TestGovernGradesSeverity(t *testing.T) {
	checkGrades(t, []gradeCase{
		{"none-at-10pct", 100, 1000, 0, gradeNone},
		{"none-below-85pct", 849, 1000, 0, gradeNone},
		{"mild-at-90pct", 900, 1000, 0, gradeMild},
		{"severe-at-100pct", 1000, 1000, 0, gradeSevere},
		{"severe-over-budget", 2000, 1000, 0, gradeSevere},
	})
}

// TestGovernExplicitBudgetOverridesLimit: an explicit budget wins over
// the process limit; the limit is used only when no budget is set.
func TestGovernExplicitBudgetOverridesLimit(t *testing.T) {
	checkGrades(t, []gradeCase{
		{"explicit-budget-beats-limit", 1 << 20, 1 << 40, 10, gradeNone},
		{"limit-when-no-budget", 1000, 0, 1000, gradeSevere},
	})
}

// TestGovernNoBudgetMeansIdle: with neither a budget nor a process limit
// there is never any pressure, however much is in use.
func TestGovernNoBudgetMeansIdle(t *testing.T) {
	checkGrades(t, []gradeCase{
		{"no-budget-is-idle", 1 << 40, 0, 0, gradeNone},
	})
}

// TestGovernDefaultProbesSane: this test binary has a live heap, so the
// usage probe reports something positive; the limit may be set by the
// environment (GOMEMLIMIT) and is only required to be sane.
func TestGovernDefaultProbesSane(t *testing.T) {
	if u := memUsage(); u <= 0 {
		t.Errorf("memUsage = %d, want > 0", u)
	}
	if l := memLimit(); l < 0 {
		t.Errorf("memLimit = %d, want >= 0", l)
	}
}

// TestGovernBackgroundLoopTrims: with no one driving it, the supervisor's
// pressure row trims on its own tick at a one-byte budget and reports
// each trim as severe, under the runtime's name.
func TestGovernBackgroundLoopTrims(t *testing.T) {
	rt := governRuntime(t)
	defer rt.Close()
	var mu sync.Mutex
	var got []TrimReport
	g := rt.StartGovernor(GovernorConfig{
		Tick:         time.Millisecond,
		MemoryBudget: 1,
		OnTrim: func(r TrimReport) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
		},
	})
	deadline := time.Now().Add(5 * time.Second)
	for g.Actions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pressure row never trimmed")
		}
		time.Sleep(time.Millisecond)
	}
	g.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("OnTrim never observed a report")
	}
	if got[0].Severity != gradeSevere || got[0].Name != "nowa" || got[0].Budget != 1 {
		t.Fatalf("first report = %+v", got[0])
	}
}

// TestGovernStopIdempotent: Stop may be called twice, and after Close.
func TestGovernStopIdempotent(t *testing.T) {
	rt := governRuntime(t)
	g := rt.StartGovernor(GovernorConfig{OnTrim: func(TrimReport) {}})
	g.Stop()
	g.Stop()
	again := rt.StartGovernor(GovernorConfig{OnTrim: func(TrimReport) {}})
	rt.Close()
	again.Stop()
}

// TestGovernDumpStateIncludesBudget: the watchdog's diagnostic dump must
// carry the new budget block.
func TestGovernDumpStateIncludesBudget(t *testing.T) {
	rt := MustNew(Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree, MaxVessels: 4})
	defer rt.Close()
	var sb strings.Builder
	rt.DumpState(&sb)
	out := sb.String()
	for _, want := range []string{"budget:", "highWater=", "maxVessels=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DumpState missing %q:\n%s", want, out)
		}
	}
}

// TestStacksReturnAtSync: a strand that runs many spawn/sync rounds, each
// stolen from, hands a round's charged stacks back when the round's Sync
// completes instead of hoarding them until it ends — on every variant.
func TestStacksReturnAtSync(t *testing.T) {
	for _, cfg := range replayVariants(4) {
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
				live = rt.StackStats().Allocated
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
