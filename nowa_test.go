package nowa

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func fib(c Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a int
	s := c.Scope()
	s.Spawn(func(c Ctx) { a = fib(c, n-1) })
	b := fib(c, n-2)
	s.Sync()
	return a + b
}

func TestEveryVariantRunsFib(t *testing.T) {
	const want = 610 // fib(15)
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := New(v, 4)
			defer Close(rt)
			if rt.Name() != v.String() {
				t.Errorf("Name() = %q, want %q", rt.Name(), v.String())
			}
			var got int
			rt.Run(func(c Ctx) { got = fib(c, 15) })
			if got != want {
				t.Fatalf("fib(15) = %d, want %d", got, want)
			}
		})
	}
}

func TestSerialElision(t *testing.T) {
	rt := Serial()
	var got int
	rt.Run(func(c Ctx) { got = fib(c, 12) })
	if got != 144 {
		t.Fatalf("serial fib(12) = %d", got)
	}
	if rt.Workers() != 1 || rt.Name() != "serial" {
		t.Error("serial runtime metadata")
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(99) did not panic")
		}
	}()
	New(Variant(99), 1)
}

func TestVariantStrings(t *testing.T) {
	if Variant(99).String() != "Variant(99)" {
		t.Error("unknown variant stringer")
	}
	seen := map[string]bool{}
	for _, v := range Variants() {
		if seen[v.String()] {
			t.Errorf("duplicate variant name %s", v)
		}
		seen[v.String()] = true
	}
	if len(seen) != 8 {
		t.Errorf("expected 8 variants, got %d", len(seen))
	}
}

func TestInvoke(t *testing.T) {
	rt := New(VariantNowa, 4)
	defer Close(rt)
	var a, b, d atomic.Int64
	rt.Run(func(c Ctx) {
		Invoke(c,
			func(c Ctx) { a.Store(1) },
			func(c Ctx) { b.Store(2) },
			func(c Ctx) { d.Store(3) },
		)
		// All assignments must be visible after Invoke returns.
		if a.Load() != 1 || b.Load() != 2 || d.Load() != 3 {
			t.Error("Invoke returned before all siblings finished")
		}
	})
}

func TestInvokeEdgeCases(t *testing.T) {
	rt := New(VariantNowa, 2)
	defer Close(rt)
	rt.Run(func(c Ctx) {
		Invoke(c) // no functions: no-op
		ran := false
		Invoke(c, func(c Ctx) { ran = true })
		if !ran {
			t.Error("single-function Invoke did not run inline")
		}
	})
}

func TestFor(t *testing.T) {
	rt := New(VariantNowa, 4)
	defer Close(rt)
	const n = 10_000
	out := make([]int, n)
	rt.Run(func(c Ctx) {
		For(c, 0, n, 0, func(_ Ctx, i int) { out[i] = i * 3 })
	})
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestForEmptyAndTinyRanges(t *testing.T) {
	rt := New(VariantNowa, 2)
	defer Close(rt)
	rt.Run(func(c Ctx) {
		For(c, 5, 5, 0, func(_ Ctx, i int) { t.Error("body ran on empty range") })
		count := 0
		For(c, 0, 1, 0, func(_ Ctx, i int) { count++ })
		if count != 1 {
			t.Errorf("single-element For ran %d times", count)
		}
	})
}

func TestReduce(t *testing.T) {
	rt := New(VariantNowa, 4)
	defer Close(rt)
	var sum int
	rt.Run(func(c Ctx) {
		sum = Reduce(c, 1, 1001, 16, 0,
			func(_ Ctx, i int) int { return i },
			func(a, b int) int { return a + b })
	})
	if sum != 500500 {
		t.Fatalf("sum = %d, want 500500", sum)
	}
}

func TestReduceEmpty(t *testing.T) {
	rt := New(VariantNowa, 2)
	defer Close(rt)
	rt.Run(func(c Ctx) {
		if got := Reduce(c, 3, 3, 1, 42, func(_ Ctx, i int) int { return 0 }, func(a, b int) int { return a + b }); got != 42 {
			t.Errorf("empty Reduce = %d, want identity 42", got)
		}
	})
}

// Property: For covers every index exactly once for any (lo, hi, grain).
func TestQuickForCoverage(t *testing.T) {
	rt := New(VariantNowa, 4)
	defer Close(rt)
	f := func(loRaw, spanRaw uint8, grainRaw uint8) bool {
		lo := int(loRaw % 50)
		hi := lo + int(spanRaw%200)
		grain := int(grainRaw % 30)
		counts := make([]atomic.Int32, hi+1)
		rt.Run(func(c Ctx) {
			For(c, lo, hi, grain, func(_ Ctx, i int) { counts[i].Add(1) })
		})
		for i := 0; i <= hi; i++ {
			want := int32(0)
			if i >= lo && i < hi {
				want = 1
			}
			if counts[i].Load() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Reduce with +/0 equals the closed-form sum for any range and
// grain.
func TestQuickReduceSum(t *testing.T) {
	rt := New(VariantNowa, 4)
	defer Close(rt)
	f := func(spanRaw, grainRaw uint8) bool {
		hi := int(spanRaw) + int(grainRaw)%50
		grain := int(grainRaw % 40)
		var got int
		rt.Run(func(c Ctx) {
			got = Reduce(c, 0, hi, grain, 0,
				func(_ Ctx, i int) int { return i },
				func(a, b int) int { return a + b })
		})
		return got == hi*(hi-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
