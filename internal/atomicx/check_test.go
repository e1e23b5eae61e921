//go:build nowacheck

package atomicx

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// counter is two threads each adding one to a shared word, by CAS or by
// a racy load and store.
func counter(racy bool) func() Scenario {
	return func() Scenario {
		var n Int64
		add := func() {
			for {
				v := n.Load()
				if racy {
					n.Store(v + 1)
					return
				}
				if n.CompareAndSwap(v, v+1) {
					return
				}
			}
		}
		return Scenario{Threads: []func(){add, add}, Check: func() error {
			if got := n.Load(); got != 2 {
				return fmt.Errorf("counter is %d, want 2", got)
			}
			return nil
		}}
	}
}

func TestExploreFindsLostUpdate(t *testing.T) {
	if _, v := Explore(Options{Bound: 0}, counter(true)); v != nil {
		t.Fatalf("bound 0 runs the threads one after the other, yet: %s", v)
	}
	n, v := Explore(Options{Bound: 1}, counter(true))
	if v == nil || v.Kind != "check" {
		t.Fatalf("lost update not found at bound 1 (%d executions): %v", n, v)
	}
	t.Logf("found after %d executions:\n%s", n, v)
	if _, v := Explore(Options{Bound: 3}, counter(false)); v != nil {
		t.Fatalf("CAS counter reported: %s", v)
	}
}

// TestExploreCountsSchedules pins the depth-first walk: two threads of
// two operations each have C(4,2) = 6 interleavings, 2 of them with no
// preemption and 4 more with one.
func TestExploreCountsSchedules(t *testing.T) {
	setup := func() Scenario {
		var x Int64
		f := func() { x.Load(); x.Load() }
		return Scenario{Threads: []func(){f, f}}
	}
	for bound, want := range []int{2, 4, 6, 6} {
		if got, _ := Explore(Options{Bound: bound}, setup); got != want {
			t.Errorf("bound %d: %d executions, want %d", bound, got, want)
		}
	}
}

func TestExploreReportsPanicAndDeadlock(t *testing.T) {
	_, v := Explore(Options{}, func() Scenario {
		var x Int64
		return Scenario{Threads: []func(){func() {
			if x.Load() == 0 {
				panic("boom")
			}
		}}}
	})
	if v == nil || v.Kind != "panic" {
		t.Fatalf("panic not reported: %v", v)
	}
	// Two locks taken in opposite orders deadlock once the first thread
	// is preempted between its two Locks.
	_, v = Explore(Options{Bound: 1}, func() Scenario {
		var a, b Mutex
		ab := func() { a.Lock(); b.Lock(); b.Unlock(); a.Unlock() }
		ba := func() { b.Lock(); a.Lock(); a.Unlock(); b.Unlock() }
		return Scenario{Threads: []func(){ab, ba}}
	})
	if v == nil || v.Kind != "deadlock" || len(v.Blocked) != 2 {
		t.Fatalf("lock-order deadlock not reported: %v", v)
	}
	t.Logf("%s", v)
}

// TestExploreEndsEveryThread stops on a violation that leaves threads
// blocked and frozen, and checks that their goroutines are gone.
func TestExploreEndsEveryThread(t *testing.T) {
	before := runtime.NumGoroutine()
	_, v := Explore(Options{Freeze: true}, func() Scenario {
		var mu Mutex
		f := func() { mu.Lock(); mu.Unlock() }
		return Scenario{Threads: []func(){f, f, f}}
	})
	if v == nil || v.Kind != "deadlock" {
		t.Fatalf("a thread frozen inside the lock did not block the others: %v", v)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Explore, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
