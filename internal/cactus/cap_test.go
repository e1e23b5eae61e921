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

// TestCapSoftPressureLatch: in CapSoft mode a cap-failed Get latches the
// pressure flag, and the next Put clears it — into the worker's own
// buffer or, when that is full, into the global pool; in CapAbort mode
// the latch never engages.
func TestCapSoftPressureLatch(t *testing.T) {
	p := NewPool(Config{Workers: 1, GlobalCap: 1, CapMode: CapSoft, StackBytes: 4096})
	s, ok := p.Get(0)
	if !ok {
		t.Fatal("first Get failed")
	}
	if p.Pressure() {
		t.Fatal("pressure latched before any failure")
	}
	if _, ok := p.Get(0); ok {
		t.Fatal("Get succeeded past the cap")
	}
	if !p.Pressure() {
		t.Fatal("cap-failed Get did not latch pressure in soft mode")
	}
	p.Put(0, s)
	if p.Pressure() {
		t.Fatal("Put did not clear the pressure latch")
	}

	// One-stack buffers: worker 0's second Put overflows to the global pool.
	g := NewPool(Config{Workers: 2, PerWorkerCap: 1, GlobalCap: 2, CapMode: CapSoft, StackBytes: 4096})
	s0, _ := g.Get(0)
	s1, _ := g.Get(0)
	g.Put(0, s0)
	if _, ok := g.Get(1); ok {
		t.Fatal("Get succeeded past the cap")
	}
	if !g.Pressure() {
		t.Fatal("cap-failed Get did not latch pressure in soft mode")
	}
	g.Put(0, s1)
	if st := g.Stats(); st.GlobalPuts != 1 {
		t.Fatalf("global puts = %d, want 1 (the overflow)", st.GlobalPuts)
	}
	if g.Pressure() {
		t.Fatal("a Put overflowing to the global pool did not clear the pressure latch")
	}

	a := NewPool(Config{Workers: 1, GlobalCap: 1, CapMode: CapAbort, StackBytes: 4096})
	_, _ = a.Get(0)
	if _, ok := a.Get(0); ok {
		t.Fatal("abort-mode Get succeeded past the cap")
	}
	if a.Pressure() {
		t.Fatal("abort mode must not latch pressure")
	}
}
