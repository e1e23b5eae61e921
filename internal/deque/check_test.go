//go:build nowacheck

package deque

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nowa/internal/atomicx"
)

// The real CL and THE deques under internal/atomicx's interleaving
// controller: every schedule of one owner and a few thieves up to a
// preemption bound, each run from a fresh deque. Run with
//
//	go test -tags nowacheck ./internal/deque/...

// row is one scenario: the owner's operations ('+' pushes the next
// value, '-' pops), the thieves, and the PopTop calls a thief makes
// before it gives up on lost races (one steal each).
type row struct {
	name    string
	owner   string
	thieves int
	tries   int
}

// subject is a deque under test with its owner operations, which a
// planted mutant replaces, and an extra check at quiescence.
type subject struct {
	Deque[int]
	push  func(*int)
	pop   func() (*int, bool)
	quiet func() error
}

func cl(mutate func(d *CLDeque[int], s *subject)) func() subject {
	return func() subject {
		d := NewCL[int](8)
		s := subject{Deque: d, push: d.PushBottom, pop: d.PopBottom}
		if mutate != nil {
			mutate(d, &s)
		}
		return s
	}
}

func the(mutate func(d *THEDeque[int], s *subject)) func() subject {
	return func() subject {
		d := NewTHE[int](8)
		s := subject{Deque: d, push: d.PushBottom, pop: d.PopBottom, quiet: func() error {
			if !d.mu.TryLock() {
				return fmt.Errorf("the lock is held at quiescence")
			}
			d.mu.Unlock()
			return nil
		}}
		if mutate != nil {
			mutate(d, &s)
		}
		return s
	}
}

// scenario builds r on a fresh deque. Thread 0 is the owner, threads
// 1.. the thieves. Check drains what is left and asserts conservation:
// each pushed value was taken exactly once.
func (r row) scenario(fresh func() subject) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		d := fresh()
		got := make([][]*int, 1+r.thieves)
		pushed := 0
		threads := []func(){func() {
			for _, op := range r.owner {
				if op == '+' {
					pushed++
					v := pushed
					d.push(&v)
				} else if x, ok := d.pop(); ok {
					got[0] = append(got[0], x)
				}
			}
		}}
		for i := 1; i <= r.thieves; i++ {
			threads = append(threads, func() {
				for try := 0; try < r.tries; try++ {
					x, o := d.PopTopOutcome()
					if o == StealHit {
						got[i] = append(got[i], x)
					}
					if o != StealLost {
						return
					}
				}
			})
		}
		return atomicx.Scenario{Threads: threads, Check: func() error {
			if d.quiet != nil {
				if err := d.quiet(); err != nil {
					return err
				}
			}
			for x, ok := d.PopBottom(); ok; x, ok = d.PopBottom() {
				got[0] = append(got[0], x)
			}
			seen := make([]int, pushed+1)
			for who, xs := range got {
				for _, x := range xs {
					if x == nil {
						return fmt.Errorf("thread %d took a nil element", who)
					}
					seen[*x]++
				}
			}
			for v := 1; v <= pushed; v++ {
				if seen[v] != 1 {
					return fmt.Errorf("element %d taken %d times", v, seen[v])
				}
			}
			return nil
		}}
	}
}

// holds explores r at the given bound and fails on any violation.
func holds(t *testing.T, r row, bound int, fresh func() subject) {
	t.Helper()
	n, v := atomicx.Explore(atomicx.Options{Bound: bound}, r.scenario(fresh))
	if v != nil {
		t.Fatalf("%s, bound %d, after %d executions:\n%s", r.name, bound, n, v)
	}
	t.Logf("%s: %d executions at bound %d, conservation holds", r.name, n, bound)
}

// caught explores r at bound 1 and fails unless a violation is found.
func caught(t *testing.T, r row, fresh func() subject) {
	t.Helper()
	n, v := atomicx.Explore(atomicx.Options{Bound: 1}, r.scenario(fresh))
	if v == nil {
		t.Fatalf("%s: planted bug reported safe after %d executions: the check is blind", r.name, n)
	}
	t.Logf("%s: found after %d executions:\n%s", r.name, n, v)
}

func TestCLDequeConservationScenarios(t *testing.T) {
	for _, r := range []row{
		{"push2-pop2-2thieves", "++--", 2, 2},
		{"interleaved-1thief", "+-+-", 1, 2},
		{"push3-pop1-2thieves", "+++-", 2, 2},
		{"pop-on-empty-1thief", "-+-", 1, 2},
		{"last-element-race", "+-", 2, 2},
	} {
		t.Run(r.name, func(t *testing.T) { holds(t, r, 3, cl(nil)) })
	}
}

// TestCLDequeRetrylessThieves: a thief that loses its CAS gives up, and
// the element stays for someone else.
func TestCLDequeRetrylessThieves(t *testing.T) {
	holds(t, row{"push2-pop2-retryless", "++--", 2, 1}, 3, cl(nil))
}

func TestCLDequeManyThieves(t *testing.T) {
	if testing.Short() {
		t.Skip("3 thieves in -short mode")
	}
	holds(t, row{"push2-pop1-3thieves", "++-", 3, 2}, 2, cl(nil))
}

// TestCLDequeBuggyOrderCaught plants a PushBottom that publishes bottom
// before it stores the element: a thief can take the empty slot.
func TestCLDequeBuggyOrderCaught(t *testing.T) {
	caught(t, row{"publish-first", "+-", 1, 2}, cl(func(d *CLDeque[int], s *subject) {
		s.push = func(x *int) {
			b := d.bottom.Load()
			r := d.ring.Load()
			d.bottom.Store(b + 1)
			r.put(b, x)
		}
	}))
}

func TestTHEDequeConservationScenarios(t *testing.T) {
	for _, r := range []row{
		{"push2-pop2-2thieves", "++--", 2, 1},
		{"interleaved-1thief", "+-+-", 1, 1},
		{"push3-pop2-2thieves", "+++--", 2, 1},
		{"pop-on-empty", "-+-", 1, 1},
		{"last-element-conflict", "+-", 2, 1},
		{"reset-then-reuse", "+--+-", 1, 1},
	} {
		t.Run(r.name, func(t *testing.T) { holds(t, r, 3, the(nil)) })
	}
}

func TestTHEDequeManyThieves(t *testing.T) {
	if testing.Short() {
		t.Skip("3 thieves in -short mode")
	}
	holds(t, row{"push2-pop1-3thieves", "++-", 3, 1}, 2, the(nil))
}

// TestTHELockAlwaysReleased: pops that conflict and find the deque empty
// take every lock path; the quiescence check finds the lock free.
func TestTHELockAlwaysReleased(t *testing.T) {
	holds(t, row{"push1-pop2-2thieves", "+--", 2, 1}, 3, the(nil))
}

// TestTHEDequeBuggyPopCaught plants a PopBottom that reads head before
// it publishes the lowered tail and so takes the last element without
// the lock: a thief takes it too.
func TestTHEDequeBuggyPopCaught(t *testing.T) {
	caught(t, row{"lockless-last", "+-", 1, 1}, the(func(d *THEDeque[int], s *subject) {
		s.pop = func() (*int, bool) {
			t := d.tail.Load() - 1
			if d.head.Load() > t {
				return nil, false
			}
			d.tail.Store(t)
			return (*d.slots.Load())[t].Load(), true
		}
	}))
}

// TestCLDequeProgressUnderFreeze: the owner's PushBottom and PopBottom
// and a thief's retry-bounded PopTop finish whichever thread is frozen,
// and wherever.
func TestCLDequeProgressUnderFreeze(t *testing.T) {
	r := row{"push2-pop2-2thieves", "++--", 2, 2}
	n, v := atomicx.Explore(atomicx.Options{Bound: 2, Freeze: true}, r.scenario(cl(nil)))
	if v != nil {
		t.Fatalf("a frozen thread stopped another after %d executions:\n%s", n, v)
	}
	t.Logf("%d executions, every unfrozen thread finished", n)
}

// TestTHEOwnerBlockedBehindFrozenThief is Listing 2's lock set against
// Eq. 5 on the real code: a thief frozen inside the deque lock, after it
// raised head, leaves the owner's PopBottom waiting for that lock for
// ever. The report is the expected outcome. The controller must end
// every goroutine of the execution it stops on.
func TestTHEOwnerBlockedBehindFrozenThief(t *testing.T) {
	before := runtime.NumGoroutine()
	r := row{"push1-pop1-1thief", "+-", 1, 1}
	n, v := atomicx.Explore(atomicx.Options{Bound: 1, Freeze: true}, r.scenario(the(nil)))
	if v == nil || v.Kind != "deadlock" || len(v.Blocked) != 1 || v.Blocked[0] != 0 {
		t.Fatalf("owner not reported blocked behind a frozen thief after %d executions: %v", n, v)
	}
	t.Logf("after %d executions:\n%s", n, v)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Explore, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
