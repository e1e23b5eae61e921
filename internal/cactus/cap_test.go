package cactus

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCapReserveRace races many goroutines for the last GlobalCap slots:
// the CAS reservation must never over-admit, and the live count must
// equal exactly the number of successful Gets.
func TestCapReserveRace(t *testing.T) {
	const cap = 8
	const goroutines = 32
	p := NewPool(Config{Workers: goroutines, GlobalCap: cap, StackBytes: 4096})
	var ok32 atomic.Int32
	var stacks [goroutines]*Stack
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if s, ok := p.Get(g); ok {
				stacks[g] = s
				ok32.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := ok32.Load(); got != cap {
		t.Fatalf("%d Gets succeeded, want exactly %d (the cap)", got, cap)
	}
	if st := p.Stats(); st.Allocated != cap {
		t.Fatalf("allocated = %d, want %d", st.Allocated, cap)
	}
	if st := p.Stats(); st.FailedGets != goroutines-cap {
		t.Fatalf("failed gets = %d, want %d", st.FailedGets, goroutines-cap)
	}
	// Returning a stack reopens exactly one slot — in the returning
	// worker's own buffer, so that is the worker that must find it.
	for g, s := range stacks {
		if s != nil {
			p.Put(g, s)
			if _, ok := p.Get(g); !ok {
				t.Fatal("Get failed after a Put reopened capacity")
			}
			break
		}
	}
}
