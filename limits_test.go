package nowa

import (
	"sort"
	"testing"
)

// checkKernels runs fib and a quicksort on rt and fails on any wrong
// answer.
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
	rt.Run(func(c Ctx) { quicksort(c, data) })
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("quicksort wrong at %d: %d != %d", i, data[i], want[i])
		}
	}
}

// quicksort sorts data in place with fork/join: the left partition is
// spawned, the right one recursed on, and short ranges go to sort.Ints.
func quicksort(c Ctx, data []int) {
	if len(data) <= 32 {
		sort.Ints(data)
		return
	}
	last := len(data) - 1
	m := 0
	for i := range data[:last] {
		if data[i] < data[last] {
			data[i], data[m] = data[m], data[i]
			m++
		}
	}
	data[m], data[last] = data[last], data[m]
	s := c.Scope()
	s.Spawn(func(c Ctx) { quicksort(c, data[:m]) })
	quicksort(c, data[m+1:])
	s.Sync()
}

// TestAllVariantsStillCorrect: the spawn path touches every variant, so
// all eight must agree on results.
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

// TestNewLimitedRejectsComparators: Limits only make sense for the
// vessel-model variants.
func TestNewLimitedRejectsComparators(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLimited(VariantTBB) did not panic")
		}
	}()
	NewLimited(VariantTBB, 2, Limits{Spawn: SpawnEager})
}
