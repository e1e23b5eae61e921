package sched

import (
	"slices"
	"testing"

	"nowa/internal/api"
	"nowa/internal/deque"
)

// TestABPDequeVariant runs the wait-free protocol on the bounded ABP
// deque: legal as long as the spawn depth stays under the fixed capacity
// (the §II-D limitation).
func TestABPDequeVariant(t *testing.T) {
	rt, err := New(Config{
		Name:    "nowa-abp",
		Workers: 4,
		Deque:   deque.ABP,
		Join:    WaitFree,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 16) })
	if want := fibSerial(16); got != want {
		t.Fatalf("fib(16) = %d, want %d", got, want)
	}
	cnt := rt.Counters()
	if err := cnt.CheckQuiescent(); err != nil {
		t.Errorf("conservation violated on ABP: %v", err)
	}
}

func TestLockedDequeVariant(t *testing.T) {
	// The fully locked strawman deque with the wait-free protocol.
	rt, err := New(Config{
		Name:    "nowa-lockedq",
		Workers: 4,
		Deque:   deque.Locked,
		Join:    WaitFree,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 14) })
	if want := fibSerial(14); got != want {
		t.Fatalf("fib(14) = %d, want %d", got, want)
	}
}

// TestSeedsChangeStealPattern: the seed is the only key a run is
// reproduced by, so it must decide victim selection — slot 1's first 256
// draws are the same for equal seeds and differ between seeds 1 and 99.
func TestSeedsChangeStealPattern(t *testing.T) {
	draws := func(seed int64) []int {
		rt := MustNew(Config{Workers: 4, Seed: seed})
		defer rt.Close()
		out := make([]int, 256)
		for i := range out {
			out[i] = rt.stealVictim(1, &rt.rngs[1])
		}
		return out
	}
	if a, b := draws(1), draws(1); !slices.Equal(a, b) {
		t.Fatal("equal seeds drew different victims")
	}
	if slices.Equal(draws(1), draws(99)) {
		t.Fatal("seeds 1 and 99 drew the same 256 victims: the seed is ignored")
	}
}
