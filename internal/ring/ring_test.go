package ring

import (
	"runtime"
	"sync"
	"testing"
)

// TestRingFIFOWrap fills and drains a ring of three cells five times over,
// so that the tickets wrap the cells, and checks order, capacity and the
// re-check probes at both ends.
func TestRingFIFOWrap(t *testing.T) {
	var r Ring[int]
	r.Init(3)
	for round := range 5 {
		for i := range 3 {
			s, ok := r.Claim()
			if !ok {
				t.Fatalf("round %d: put %d refused by a ring with room", round, i)
			}
			s.Publish(10*round + i)
		}
		if r.CanPut() || r.Len() != 3 {
			t.Fatalf("round %d: full ring reads CanPut %v, Len %d", round, r.CanPut(), r.Len())
		}
		for i := range 3 {
			if v, ok := r.Get(); !ok || v != 10*round+i {
				t.Fatalf("round %d: get %d = %d, %v; want %d", round, i, v, ok, 10*round+i)
			}
		}
		if _, ok := r.Get(); ok || r.CanGet() || !r.Settled() {
			t.Fatalf("round %d: drained ring still yields an item or is unsettled", round)
		}
	}
}

// TestRingOutOfOrderPublish claims two put tickets and publishes the
// second first: the head stays unavailable until the first lands, and
// the items still leave in ticket order.
func TestRingOutOfOrderPublish(t *testing.T) {
	var r Ring[int]
	r.Init(2)
	s0, _ := r.Claim()
	s1, _ := r.Claim()
	s1.Publish(1)
	if _, ok := r.Get(); ok || r.Settled() {
		t.Fatal("get succeeded past an unpublished head, or the ring reads settled")
	}
	s0.Publish(0)
	for want := range 2 {
		if v, ok := r.Get(); !ok || v != want {
			t.Fatalf("get = %d, %v; want %d", v, ok, want)
		}
	}
}

// TestRingConcurrent runs four producers and four consumers over a ring of
// two cells; every item must come out exactly once.
func TestRingConcurrent(t *testing.T) {
	const producers, each = 4, 2000
	var r Ring[int]
	r.Init(2)
	seen := make([]int, producers*each)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for p := range producers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; {
				if s, ok := r.Claim(); ok {
					s.Publish(p*each + i)
					i++
				} else {
					runtime.Gosched()
				}
			}
		}()
		go func() {
			defer wg.Done()
			for got := 0; got < each; {
				if v, ok := r.Get(); ok {
					mu.Lock()
					seen[v]++
					mu.Unlock()
					got++
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d received %d times", v, n)
		}
	}
}
