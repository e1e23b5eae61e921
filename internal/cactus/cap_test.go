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
// pressure flag, and the next Put clears it; in CapAbort mode the latch
// never engages.
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

	a := NewPool(Config{Workers: 1, GlobalCap: 1, CapMode: CapAbort, StackBytes: 4096})
	_, _ = a.Get(0)
	if _, ok := a.Get(0); ok {
		t.Fatal("abort-mode Get succeeded past the cap")
	}
	if a.Pressure() {
		t.Fatal("abort mode must not latch pressure")
	}
}

// TestTrimReclaimsTowardFloor: Trim destroys free stacks down to the
// floor, gives their cap slots back, and clears soft pressure.
func TestTrimReclaimsTowardFloor(t *testing.T) {
	p := NewPool(Config{Workers: 2, PerWorkerCap: 2, GlobalCap: 6, CapMode: CapSoft, StackBytes: 4096})
	var out []*Stack
	for i := 0; i < 6; i++ {
		s, ok := p.Get(i % 2)
		if !ok {
			t.Fatalf("Get %d failed", i)
		}
		out = append(out, s)
	}
	_, _ = p.Get(0) // latch pressure
	if !p.Pressure() {
		t.Fatal("pressure not latched")
	}
	for i, s := range out {
		p.Put(i%2, s)
	}
	if got := p.FreeCount(); got != 6 {
		t.Fatalf("free count = %d, want 6", got)
	}
	n := p.Trim(2)
	if n != 4 {
		t.Fatalf("Trim reclaimed %d, want 4", n)
	}
	st := p.Stats()
	if st.Allocated != 2 || st.Trimmed != 4 {
		t.Fatalf("allocated=%d trimmed=%d, want 2/4", st.Allocated, st.Trimmed)
	}
	if p.Pressure() {
		t.Fatal("Trim did not clear pressure")
	}
	if st.ResidentBytes != 2*4096 {
		t.Fatalf("resident = %d, want %d (trimmed stacks must leave the RSS accounting)",
			st.ResidentBytes, 2*4096)
	}
	// Headroom regained: a bounded pool can allocate again up to the cap.
	live := int(st.Allocated)
	for i := live; i < 6; i++ {
		if _, ok := p.Get(0); !ok {
			t.Fatalf("Get %d failed after Trim returned cap slots", i)
		}
	}
}

// TestTrimConcurrentWithGetPut races Trim against Get/Put traffic; the
// conservation invariant (allocated == checked out + free) must hold
// once the dust settles.
func TestTrimConcurrentWithGetPut(t *testing.T) {
	p := NewPool(Config{Workers: 4, PerWorkerCap: 2, GlobalCap: 16, CapMode: CapSoft, StackBytes: 4096})
	stop := make(chan struct{})
	trimDone := make(chan struct{})
	go func() {
		defer close(trimDone)
		for {
			select {
			case <-stop:
				return
			default:
				p.Trim(4)
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 2000; i++ {
				if s, ok := p.Get(w); ok {
					p.Put(w, s)
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	<-trimDone
	st := p.Stats()
	if free := int64(p.FreeCount()); st.Allocated != free {
		t.Fatalf("allocated %d != free %d with nothing checked out", st.Allocated, free)
	}
	if st.Allocated > 16 {
		t.Fatalf("allocated %d exceeds cap 16", st.Allocated)
	}
}
