package nowa

import (
	"fmt"
	"sort"
	"testing"
)

// limitedVariants are the vessel-model variants NewLimited accepts.
var limitedVariants = []Variant{VariantNowa, VariantNowaTHE, VariantFibril, VariantCilkPlus}

// checkKernels runs fib and a quicksort on rt and fails on any wrong
// answer — degradation must never change results.
func checkKernels(t *testing.T, rt Runtime) {
	t.Helper()
	var got int
	rt.Run(func(c Ctx) { got = fib(c, 16) })
	if got != 987 {
		t.Fatalf("fib(16) = %d, want 987", got)
	}
	data := make([]int, 2000)
	for i := range data {
		data[i] = (i * 7919) % 1237
	}
	want := append([]int(nil), data...)
	sort.Ints(want)
	rt.Run(func(c Ctx) { SortOrdered(c, data) })
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("quicksort wrong at %d: %d != %d", i, data[i], want[i])
		}
	}
}

// TestLimitedCorrectAcrossBudgets runs every vessel-model variant under
// an absurdly low budget (everything degrades inline), a mid-range
// budget (mixed inline/parallel), and a soft-stack bound, checking
// results and the high-water guarantee each time.
func TestLimitedCorrectAcrossBudgets(t *testing.T) {
	const workers = 4
	cases := []struct {
		name string
		lim  Limits
	}{
		{"low", Limits{MaxVessels: 1}}, // raised to Workers: the tightest legal budget
		{"mid", Limits{MaxVessels: workers + 3}},
		{"stack-bound", Limits{MaxStacks: 3}},
		{"everything", Limits{MaxVessels: workers + 2, MaxStacks: 4}},
	}
	for _, v := range limitedVariants {
		for _, tc := range cases {
			v, tc := v, tc
			t.Run(fmt.Sprintf("%s/%s", v, tc.name), func(t *testing.T) {
				rt := NewLimited(v, workers, tc.lim)
				defer Close(rt)
				checkKernels(t, rt)
				rs, ok := Resources(rt)
				if !ok {
					t.Fatal("limited runtime does not report resources")
				}
				if cap := tc.lim.MaxVessels; cap > 0 {
					eff := cap
					if eff < workers {
						eff = workers
					}
					if rs.VesselHighWater > int64(eff) {
						t.Fatalf("vessel high water %d exceeds budget %d", rs.VesselHighWater, eff)
					}
				}
				if rs.VesselsLeaked != 0 || rs.StacksLeaked != 0 {
					t.Fatalf("leaks after limited run: %+v", rs)
				}
			})
		}
	}
}

// TestLimitedSerialBudgetMatchesElision: with one worker, a one-vessel
// budget and eager spawning, every spawn degrades, so the answer must
// equal the serial elision's and the parallel spawn counter must stay
// zero. (Under the default lazy policy the budget never binds — see
// TestLimitedSerialBudgetLazy.)
func TestLimitedSerialBudget(t *testing.T) {
	for _, v := range limitedVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := NewLimited(v, 1, Limits{MaxVessels: 1, Spawn: SpawnEager})
			defer Close(rt)
			checkKernels(t, rt)
			rs, _ := Resources(rt)
			if rs.DegradedSpawns == 0 {
				t.Fatal("DegradedSpawns = 0 under a one-vessel budget")
			}
			if rs.VesselHighWater != 1 {
				t.Fatalf("high water = %d, want 1", rs.VesselHighWater)
			}
		})
	}
}

// TestLimitedSerialBudgetLazy is the same one-vessel budget under the
// default lazy spawn policy: inline children consume no vessel budget at
// all, so the run completes with neither degradation nor vessel growth —
// the budget simply never binds on the no-steal path.
func TestLimitedSerialBudgetLazy(t *testing.T) {
	for _, v := range limitedVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := NewLimited(v, 1, Limits{MaxVessels: 1})
			defer Close(rt)
			checkKernels(t, rt)
			rs, _ := Resources(rt)
			if rs.DegradedSpawns != 0 {
				t.Fatalf("DegradedSpawns = %d, want 0 (lazy spawns request no vessel)", rs.DegradedSpawns)
			}
			if rs.VesselHighWater != 1 {
				t.Fatalf("high water = %d, want 1", rs.VesselHighWater)
			}
		})
	}
}

// TestAllVariantsStillCorrect is the unlimited ride-along: the spawn
// path restructure (vessel acquired before the continuation publish)
// touches every variant, so all eight must still agree on results.
func TestAllVariantsStillCorrect(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := New(v, 4)
			defer Close(rt)
			checkKernels(t, rt)
		})
	}
}

// TestResourcesReporting: vessel-model runtimes report resources, the
// comparators without a vessel model report false, and the serial
// elision reports false.
func TestResourcesReporting(t *testing.T) {
	rt := New(VariantNowa, 2)
	defer Close(rt)
	rt.Run(func(c Ctx) { _ = fib(c, 10) })
	rs, ok := Resources(rt)
	if !ok {
		t.Fatal("nowa runtime must report resources")
	}
	if rs.VesselsLive < 2 {
		t.Fatalf("VesselsLive = %d, want >= workers", rs.VesselsLive)
	}
	if _, ok := Resources(New(VariantTBB, 2)); ok {
		t.Error("TBB comparator unexpectedly reports vessel resources")
	}
	if _, ok := Resources(Serial()); ok {
		t.Error("serial elision unexpectedly reports resources")
	}
}

// TestNewLimitedRejectsComparators: limits only make sense for the
// vessel-model variants.
func TestNewLimitedRejectsComparators(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLimited(VariantTBB) did not panic")
		}
	}()
	NewLimited(VariantTBB, 2, Limits{MaxVessels: 4})
}
