package sched

import (
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

// TestSeedsChangeStealPattern checks that the RNG seed actually steers
// victim selection (determinism knob for experiments).
func TestSeedsChangeStealPattern(t *testing.T) {
	counts := make([]int64, 2)
	for i, seed := range []int64{1, 99} {
		rt, err := New(Config{Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(func(c api.Ctx) { _ = fib(c, 18) })
		counts[i] = rt.Counters().FailedSteals
		rt.Close()
	}
	// Not a strict guarantee, but with fib(18) the schedules essentially
	// never coincide; a deterministic-identical result would indicate the
	// seed is ignored.
	if counts[0] == counts[1] {
		t.Logf("warning: identical failed-steal counts %d for different seeds (possible but unlikely)", counts[0])
	}
}
