package cactus

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestGetPutLocalBuffer(t *testing.T) {
	p := NewPool(Config{Workers: 2, PerWorkerCap: 2, StackBytes: 4096})
	s1, ok := p.Get(0)
	if !ok || s1 == nil {
		t.Fatal("fresh Get failed")
	}
	if !s1.Resident() {
		t.Error("fresh stack not resident")
	}
	p.Put(0, s1)
	s2, ok := p.Get(0)
	if !ok || s2 != s1 {
		t.Error("local buffer did not recirculate the stack")
	}
	st := p.Stats()
	if st.LocalGets != 1 || st.FreshGets != 1 || st.LocalPuts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGlobalPoolOverflow(t *testing.T) {
	p := NewPool(Config{Workers: 1, PerWorkerCap: 1, StackBytes: 4096})
	a, _ := p.Get(0)
	b, _ := p.Get(0)
	p.Put(0, a) // fills local buffer (cap 1)
	p.Put(0, b) // overflows to global
	st := p.Stats()
	if st.GlobalPuts != 1 || st.LocalPuts != 1 {
		t.Fatalf("puts not split local/global: %+v", st)
	}
	// Worker 0 drains its local buffer, then the global pool.
	if s, _ := p.Get(0); s != a {
		t.Error("expected local buffer hit first")
	}
	if s, _ := p.Get(0); s != b {
		t.Error("expected global pool hit second")
	}
	if st := p.Stats(); st.GlobalGets != 1 {
		t.Errorf("GlobalGets = %d, want 1", st.GlobalGets)
	}
}

func TestStacksMigrateBetweenWorkers(t *testing.T) {
	p := NewPool(Config{Workers: 2, PerWorkerCap: 0, StackBytes: 4096})
	s, _ := p.Get(0)
	p.Put(1, s) // stolen strand finished on worker 1
	got, ok := p.Get(1)
	if !ok || got != s {
		t.Error("stack did not recirculate via worker 1's buffer")
	}
}

func TestGlobalCapCilkPlusMode(t *testing.T) {
	p := NewPool(Config{Workers: 1, GlobalCap: 2, StackBytes: 4096})
	a, ok := p.Get(0)
	if !ok {
		t.Fatal("get 1 failed")
	}
	if _, ok := p.Get(0); !ok {
		t.Fatal("get 2 failed")
	}
	if _, ok := p.Get(0); ok {
		t.Fatal("get 3 should fail at GlobalCap=2")
	}
	if st := p.Stats(); st.FailedGets != 1 {
		t.Errorf("FailedGets = %d, want 1", st.FailedGets)
	}
	// Returning a stack makes stealing possible again.
	p.Put(0, a)
	if _, ok := p.Get(0); !ok {
		t.Fatal("get after Put failed")
	}
}

func TestMadviseAccounting(t *testing.T) {
	const sb = 8192
	p := NewPool(Config{Workers: 1, StackBytes: sb, Madvise: true})
	s, _ := p.Get(0)
	if got := p.Stats().ResidentBytes; got != sb {
		t.Fatalf("resident = %d, want %d", got, sb)
	}
	s.Bytes()[100] = 42
	p.Put(0, s)
	st := p.Stats()
	if st.MadviseCalls != 1 {
		t.Errorf("MadviseCalls = %d, want 1", st.MadviseCalls)
	}
	if st.ResidentBytes != 0 {
		t.Errorf("resident after madvise = %d, want 0", st.ResidentBytes)
	}
	if s.Bytes()[100] != 0 {
		t.Error("madvise did not clear the arena")
	}
	s2, _ := p.Get(0)
	if s2 != s {
		t.Fatal("expected recirculated stack")
	}
	st = p.Stats()
	if st.PageFaults != sb/4096 {
		t.Errorf("PageFaults = %d, want %d", st.PageFaults, sb/4096)
	}
	if st.ResidentBytes != sb {
		t.Errorf("resident after refault = %d, want %d", st.ResidentBytes, sb)
	}
}

func TestNoMadviseKeepsResident(t *testing.T) {
	p := NewPool(Config{Workers: 1, StackBytes: 4096, Madvise: false})
	s, _ := p.Get(0)
	p.Put(0, s)
	st := p.Stats()
	if st.MadviseCalls != 0 || st.ResidentBytes != 4096 {
		t.Errorf("stats = %+v", st)
	}
	if st.PeakRSSBytes != 4096 {
		t.Errorf("peak = %d, want 4096", st.PeakRSSBytes)
	}
}

func TestPeakRSSTracksHighWater(t *testing.T) {
	p := NewPool(Config{Workers: 1, StackBytes: 4096, Madvise: true})
	var stacks []*Stack
	for i := 0; i < 5; i++ {
		s, _ := p.Get(0)
		stacks = append(stacks, s)
	}
	for _, s := range stacks {
		p.Put(0, s)
	}
	st := p.Stats()
	if st.PeakRSSBytes != 5*4096 {
		t.Errorf("peak = %d, want %d", st.PeakRSSBytes, 5*4096)
	}
	if st.ResidentBytes != 0 {
		t.Errorf("resident = %d, want 0 (all madvised)", st.ResidentBytes)
	}
}

func TestPutNilIsNoop(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	p.Put(0, nil)
	if st := p.Stats(); st.LocalPuts != 0 && st.GlobalPuts != 0 {
		t.Error("nil Put was counted")
	}
}

func TestDefaultsFilled(t *testing.T) {
	p := NewPool(Config{})
	c := p.Config()
	if c.Workers != 1 || c.PerWorkerCap != 4 || c.StackBytes != 64<<10 {
		t.Errorf("defaults = %+v", c)
	}
}

// TestQuickConservation: for any interleaving of gets and puts, resident
// accounting equals (outstanding stacks + non-madvised pooled stacks) ×
// StackBytes, and no stack is handed to two holders at once.
func TestQuickConservation(t *testing.T) {
	f := func(ops []bool, madvise bool) bool {
		const sb = 4096
		p := NewPool(Config{Workers: 2, PerWorkerCap: 1, StackBytes: sb, Madvise: madvise})
		held := make(map[*Stack]bool)
		w := 0
		for _, get := range ops {
			w = 1 - w
			if get {
				s, ok := p.Get(w)
				if !ok || s == nil {
					return false
				}
				if held[s] {
					return false // double-issued
				}
				held[s] = true
			} else {
				for s := range held {
					delete(held, s)
					p.Put(w, s)
					break
				}
			}
		}
		// With madvise, only held stacks are resident; without it, every
		// stack ever allocated stays resident.
		want := int64(len(held)) * sb
		if !madvise {
			want = p.Stats().Allocated * sb
		}
		return p.Stats().ResidentBytes == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p := NewPool(Config{Workers: 4, PerWorkerCap: 2, StackBytes: 4096, Madvise: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s, ok := p.Get(w)
				if !ok {
					t.Error("Get failed")
					return
				}
				s.Bytes()[0] = byte(i)
				p.Put((w+1)%4, s) // migrate, like stolen work finishing elsewhere
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.ResidentBytes != 0 {
		t.Errorf("resident = %d after all puts (madvise on)", st.ResidentBytes)
	}
	if st.Allocated > 16 {
		t.Errorf("allocated %d stacks for 4 workers — pool not recirculating", st.Allocated)
	}
}
