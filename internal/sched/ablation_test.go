package sched

import (
	"slices"
	"strings"
	"testing"

	"nowa/internal/deque"
)

// The scheduler runs on the CL and THE deques only; the bounded ABP and
// the fully locked deque stay in internal/deque for its own benchmarks
// and for internal/childsteal. New must refuse them with an error.
func requireDequeRejected(t *testing.T, alg deque.Algorithm) {
	t.Helper()
	rt, err := New(Config{Workers: 2, Deque: alg, Join: WaitFree})
	if err == nil {
		rt.Close()
		t.Fatalf("New accepted the %v deque", alg)
	}
	if !strings.Contains(err.Error(), "CL or THE") {
		t.Errorf("error %q does not name the supported deques", err)
	}
}

// TestABPDequeVariant: the bounded ABP deque is no scheduler variant.
func TestABPDequeVariant(t *testing.T) { requireDequeRejected(t, deque.ABP) }

// TestLockedDequeVariant: the fully locked deque is no scheduler variant.
func TestLockedDequeVariant(t *testing.T) { requireDequeRejected(t, deque.Locked) }

// TestSeedsChangeStealPattern: the seed is the only key a run is
// reproduced by, so it must decide victim selection — slot 1's first 256
// draws are the same for equal seeds and differ between seeds 1 and 99.
func TestSeedsChangeStealPattern(t *testing.T) {
	draws := func(seed int64) []int {
		rt := MustNew(Config{Workers: 4, Seed: seed})
		defer rt.Close()
		out := make([]int, 256)
		for i := range out {
			out[i] = rt.stealVictim(1)
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
