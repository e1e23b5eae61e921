package trace

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestEveryCounterRow drives the package's invariants from the table: for
// every row, an increment flushed into one worker's block shows up in
// that block's cell, in Aggregate, under the row's name in the
// Counters struct (the one conversion) and through Get — and nowhere
// else.
func TestEveryCounterRow(t *testing.T) {
	// StackLocalGets and StackGlobalGets have no row: the stack pool
	// counts them, and the runtime copies its tallies in.
	if n := reflect.TypeOf(Counters{}).NumField(); n != int(NumCounters)+2 {
		t.Fatalf("Counters has %d fields, the table %d rows plus the 2 pool-fed ones", n, NumCounters)
	}
	for id := ID(0); id < NumCounters; id++ {
		r := NewRecorder(3)
		var p Pending
		p[id] = 5
		r.Worker(1).Flush(&p)
		if p != (Pending{}) {
			t.Errorf("%v: Flush left the batch dirty: %v", id, p)
		}
		p[id] = 2
		r.Worker(2).Flush(&p)

		var want Counters
		f := reflect.ValueOf(&want).Elem().FieldByName(id.String())
		if !f.IsValid() {
			t.Fatalf("row %d is named %q, which is no Counters field", id, id)
		}
		f.SetInt(7)
		got := r.Aggregate()
		if got != want {
			t.Errorf("%v: Aggregate = %+v, want %+v", id, got, want)
		}
		if got.Get(id) != 7 {
			t.Errorf("%v: Get = %d, want 7", id, got.Get(id))
		}
		if cell := r.Worker(1)[id].Load(); cell != 5 {
			t.Errorf("%v: worker 1's cell = %d, want 5", id, cell)
		}
	}
}

func TestCheckQuiescent(t *testing.T) {
	ok := Counters{Spawns: 10, InlineRuns: 4, LocalResumes: 5, Steals: 1,
		BlockedWaits: 3, ResumedWaits: 2, AbortedWaits: 1, ThiefParks: 7, ThiefWakeups: 7}
	if err := ok.CheckQuiescent(); err != nil {
		t.Errorf("balanced snapshot rejected: %v", err)
	}
	lostSpawn, lostWait, lostWake := ok, ok, ok
	lostSpawn.Steals = 0
	lostWait.ResumedWaits = 1
	lostWake.ThiefWakeups = 6
	for _, c := range []Counters{lostSpawn, lostWait, lostWake} {
		if c.CheckQuiescent() == nil {
			t.Errorf("unbalanced snapshot accepted: %+v", c)
		}
	}
}

func TestWorkerBlocksAreCacheLinePadded(t *testing.T) {
	// Adjacent workers' blocks must not share a 128-byte unit.
	r := NewRecorder(2)
	a := uintptr(unsafe.Pointer(r.Worker(0)))
	b := uintptr(unsafe.Pointer(r.Worker(1)))
	if b-a <= unsafe.Sizeof(WorkerCounters{}) || (b-a)%128 != 0 {
		t.Errorf("counter blocks %d bytes apart for a %d-byte block", b-a, unsafe.Sizeof(WorkerCounters{}))
	}
}

func TestConcurrentDisjointWorkers(t *testing.T) {
	// Each worker mutating its own block is race-free by design; a reader
	// aggregating mid-run is race-free because the cells are atomic.
	r := NewRecorder(4)
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Aggregate()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Worker(w)
			for i := 0; i < 10_000; i++ {
				c[Spawns].Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	if got := r.Aggregate().Spawns; got != 40_000 {
		t.Errorf("spawns = %d, want 40000", got)
	}
}
