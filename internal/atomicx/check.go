//go:build nowacheck

package atomicx

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Int64 is atomic.Int64 with a scheduling point before each operation.
type Int64 struct{ v atomic.Int64 }

func (x *Int64) Load() int64   { yield("Int64.Load", nil); return x.v.Load() }
func (x *Int64) Store(v int64) { yield("Int64.Store", nil); x.v.Store(v) }
func (x *Int64) CompareAndSwap(old, new int64) bool {
	yield("Int64.CompareAndSwap", nil)
	return x.v.CompareAndSwap(old, new)
}

// Pointer is atomic.Pointer[T] with a scheduling point before each
// operation.
type Pointer[T any] struct{ p atomic.Pointer[T] }

func (x *Pointer[T]) Load() *T   { yield("Pointer.Load", nil); return x.p.Load() }
func (x *Pointer[T]) Store(v *T) { yield("Pointer.Store", nil); x.p.Store(v) }

// Mutex is sync.Mutex run cooperatively: the controller does not
// schedule a thread whose Lock would block until the holder unlocks.
type Mutex struct{ mu sync.Mutex }

func (m *Mutex) Lock()         { yield("Mutex.Lock", m); m.mu.Lock() }
func (m *Mutex) Unlock()       { yield("Mutex.Unlock", nil); m.mu.Unlock() }
func (m *Mutex) TryLock() bool { yield("Mutex.TryLock", nil); return m.mu.TryLock() }

// held probes m for the controller, while every thread waits.
func (m *Mutex) held() bool {
	if !m.mu.TryLock() {
		return true
	}
	m.mu.Unlock()
	return false
}

// Scenario is one execution: threads over state built afresh for it,
// and the property that must hold once they have all returned.
type Scenario struct {
	Threads []func()
	Check   func() error // nil: finishing is the whole property
}

// Options bound an exploration.
type Options struct {
	// Bound is the number of preemptions a schedule may make: switches
	// away from a thread that could have gone on (CHESS's context
	// bound, Musuvathi and Qadeer, PLDI 2007).
	Bound int
	// Freeze adds, at every step of every schedule, the choice to
	// freeze one thread: it never runs again. Every other thread must
	// still finish; Check is not run on such an execution.
	Freeze bool
}

// Violation is a schedule under which a scenario failed.
type Violation struct {
	Kind     string   // "panic", "deadlock" or "check"
	Detail   string   // what went wrong
	Blocked  []int    // for a deadlock: the threads left waiting for a lock
	Schedule []string // the steps taken: "t1 Int64.Load", "t2 frozen before Mutex.Unlock"
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s\nschedule:\n  %s", v.Kind, v.Detail, strings.Join(v.Schedule, "\n  "))
}

// running is the thread the controller has let run, nil when none has.
// It is package state because an atomic operation carries no context to
// find its controller by; hence one Explore at a time.
var running atomic.Pointer[thread]

// thread is one Scenario thread: a goroutine that runs only between a
// wake and its next report on back.
type thread struct {
	op       string // the operation it waits to perform
	want     *Mutex // the lock that operation takes, if any
	wake     chan bool
	back     chan string // "" at a scheduling point or a normal end, else the panic
	done     bool
	aborting bool
}

// yield makes the caller's next operation a scheduling point. The
// running thread reports op and waits for its turn; any other goroutine
// (setup, Check, ordinary tests) goes straight on, as does a thread
// that is being aborted.
func yield(op string, want *Mutex) {
	t := running.Load()
	if t == nil || t.aborting {
		return
	}
	t.op, t.want = op, want
	t.back <- ""
	if !<-t.wake {
		t.aborting = true
		runtime.Goexit()
	}
}

func (t *thread) start(f func()) {
	defer func() {
		t.done = true
		if r := recover(); r != nil {
			t.back <- fmt.Sprintf("panic: %v", r)
		} else {
			t.back <- ""
		}
	}()
	if <-t.wake {
		f()
	}
}

// step lets t run to its next scheduling point, or, with run false,
// ends its goroutine there, and returns the panic it ended in, if any.
func (t *thread) step(run bool) string {
	running.Store(t)
	t.wake <- run
	p := <-t.back
	running.Store(nil)
	return p
}

// node is one scheduling decision: its alternatives, the default first,
// the one taken and the operation it let run.
type node struct {
	alts     []alt
	k        int
	preempts int // spent before this decision
	op       string
}

type alt struct {
	t       int
	freeze  bool
	preempt bool
}

// Explore runs setup's scenario once under every schedule that makes at
// most o.Bound preemptions, depth first, building it afresh each time.
// It returns the executions it ran and the first violation, nil if
// none. Threads switch only at atomicx operations, so a scenario must
// be deterministic between them. One Explore runs at a time, and no
// other goroutine may use atomicx while it does.
func Explore(o Options, setup func() Scenario) (executions int, v *Violation) {
	var prefix []int
	for {
		path, v := execute(o, setup(), prefix)
		executions++
		if v != nil {
			return executions, v
		}
		if prefix = next(path, o.Bound); prefix == nil {
			return executions, nil
		}
	}
}

// next is the schedule after path in depth-first order: path up to its
// deepest decision with an untried alternative the bound still affords,
// then that alternative.
func next(path []node, bound int) []int {
	for d := len(path) - 1; d >= 0; d-- {
		n := path[d]
		for k := n.k + 1; k < len(n.alts); k++ {
			if !n.alts[k].preempt || n.preempts < bound {
				prefix := make([]int, d+1)
				for i := range path[:d] {
					prefix[i] = path[i].k
				}
				prefix[d] = k
				return prefix
			}
		}
	}
	return nil
}

// execute runs sc once, taking the decisions of prefix and then the
// default ones: the running thread goes on while it can, else the
// lowest-numbered thread that can. Every thread is ended before it
// returns, finished or not.
func execute(o Options, sc Scenario, prefix []int) (path []node, v *Violation) {
	ts := make([]*thread, len(sc.Threads))
	fail := func(kind, detail string) *Violation {
		v := &Violation{Kind: kind, Detail: detail}
		for _, n := range path {
			v.Schedule = append(v.Schedule, fmt.Sprintf("t%d %s", n.alts[n.k].t, n.op))
		}
		return v
	}
	defer func() {
		for _, t := range ts {
			if t != nil && !t.done {
				t.step(false)
			}
		}
	}()
	back := make(chan string)
	for i, f := range sc.Threads {
		ts[i] = &thread{wake: make(chan bool), back: back}
		go ts[i].start(f)
		if p := ts[i].step(true); p != "" {
			return path, fail("panic", fmt.Sprintf("thread %d: %s", i, p))
		}
	}
	cur, frozen, preempts := -1, -1, 0
	for {
		var enabled, blocked []int
		curOn := false
		for i, t := range ts {
			switch {
			case t.done || i == frozen:
			case t.want != nil && t.want.held():
				blocked = append(blocked, i)
			default:
				enabled = append(enabled, i)
				curOn = curOn || i == cur
			}
		}
		if len(enabled) == 0 {
			if len(blocked) > 0 {
				v := fail("deadlock", fmt.Sprintf("threads %v wait for a lock that is never released", blocked))
				v.Blocked = blocked
				return path, v
			}
			break
		}
		n := node{preempts: preempts}
		first := enabled[0]
		if curOn {
			first = cur
		}
		n.alts = append(n.alts, alt{t: first})
		for _, j := range enabled {
			if j != first {
				n.alts = append(n.alts, alt{t: j, preempt: curOn})
			}
		}
		if o.Freeze && frozen < 0 {
			for _, j := range enabled {
				n.alts = append(n.alts, alt{t: j, freeze: true})
			}
		}
		if d := len(path); d < len(prefix) {
			if n.k = prefix[d]; n.k >= len(n.alts) {
				panic("atomicx: the scenario is not deterministic: a replayed schedule diverged")
			}
		}
		a := n.alts[n.k]
		if n.op = ts[a.t].op; a.freeze {
			n.op = "frozen before " + n.op
		}
		path = append(path, n)
		if a.preempt {
			preempts++
		}
		if a.freeze {
			frozen = a.t
			continue
		}
		cur = a.t
		if p := ts[cur].step(true); p != "" {
			return path, fail("panic", fmt.Sprintf("thread %d: %s", cur, p))
		}
	}
	if frozen < 0 && sc.Check != nil {
		if err := sc.Check(); err != nil {
			return path, fail("check", err.Error())
		}
	}
	return path, nil
}
