//go:build nowacheck

package atomicx

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// The sync/atomic types, with a scheduling point before each operation.
type (
	Bool           struct{ v atomic.Bool }
	Int64          struct{ v atomic.Int64 }
	Uint32         struct{ v atomic.Uint32 }
	Uint64         struct{ v atomic.Uint64 }
	Pointer[T any] struct{ p atomic.Pointer[T] }
)

func (x *Bool) Load() bool       { yield("Bool.Load", nil); return x.v.Load() }
func (x *Bool) Swap(v bool) bool { yield("Bool.Swap", nil); return x.v.Swap(v) }

func (x *Int64) Load() int64       { yield("Int64.Load", nil); return x.v.Load() }
func (x *Int64) Store(v int64)     { yield("Int64.Store", nil); x.v.Store(v) }
func (x *Int64) Add(d int64) int64 { yield("Int64.Add", nil); return x.v.Add(d) }
func (x *Int64) CompareAndSwap(old, new int64) bool {
	yield("Int64.CompareAndSwap", nil)
	return x.v.CompareAndSwap(old, new)
}

func (x *Uint32) Load() uint32 { yield("Uint32.Load", nil); return x.v.Load() }
func (x *Uint32) CompareAndSwap(old, new uint32) bool {
	yield("Uint32.CompareAndSwap", nil)
	return x.v.CompareAndSwap(old, new)
}

func (x *Uint64) Load() uint64        { yield("Uint64.Load", nil); return x.v.Load() }
func (x *Uint64) Store(v uint64)      { yield("Uint64.Store", nil); x.v.Store(v) }
func (x *Uint64) Add(d uint64) uint64 { yield("Uint64.Add", nil); return x.v.Add(d) }
func (x *Uint64) CompareAndSwap(old, new uint64) bool {
	yield("Uint64.CompareAndSwap", nil)
	return x.v.CompareAndSwap(old, new)
}

func (x *Pointer[T]) Load() *T   { yield("Pointer.Load", nil); return x.p.Load() }
func (x *Pointer[T]) Store(v *T) { yield("Pointer.Store", nil); x.p.Store(v) }
func (x *Pointer[T]) CompareAndSwap(old, new *T) bool {
	yield("Pointer.CompareAndSwap", nil)
	return x.p.CompareAndSwap(old, new)
}

// Gosched is the yield of a loop that waits for another thread to act.
// A thread that reaches it twice with no other thread's write in between
// has looked at the same state twice, so the controller does not
// schedule it again until another thread takes a step that may write
// (any operation but a Load or a Gosched): a spin-wait costs no
// preemption, cannot run for ever while the thread it waits for is
// runnable, and two spinners do not keep each other going.
func Gosched() {
	if t := running.Load(); t != nil && !t.aborting {
		t.spins, t.quiet = t.quiet, true
	}
	yield("Gosched", nil)
}

// Mutex is sync.Mutex run cooperatively: the controller does not
// schedule a thread whose Lock would block until the holder unlocks.
type Mutex struct{ mu sync.Mutex }

func (m *Mutex) Lock()         { yield("Mutex.Lock", m); m.mu.Lock() }
func (m *Mutex) Unlock()       { yield("Mutex.Unlock", nil); m.mu.Unlock() }
func (m *Mutex) TryLock() bool { yield("Mutex.TryLock", nil); return m.mu.TryLock() }

// Hold locks m with no scheduling point, for a mutex no other thread can
// reach yet: the lock cannot block, so a choice before it would only
// multiply the schedules.
func (m *Mutex) Hold() { m.mu.Lock() }

// held probes m for the controller, while every thread waits.
func (m *Mutex) held() bool {
	if !m.mu.TryLock() {
		return true
	}
	m.mu.Unlock()
	return false
}

// Steps is the number of scheduling points the calling thread has
// reached in this execution, 0 outside a scenario thread. The difference
// across a call is the number of shared-memory operations it took: a
// bound on it that holds in every schedule is wait-freedom.
func Steps() int {
	if t := running.Load(); t != nil {
		return t.steps
	}
	return 0
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
	Blocked  []int    // for a deadlock: the threads left waiting for a lock or spinning
	Schedule []string // the steps taken: "t1 Int64.Load", "t2 frozen before Mutex.Unlock"
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s\nschedule:\n  %s", v.Kind, v.Detail, strings.Join(v.Schedule, "\n  "))
}

// running is the thread that holds the turn, nil when none does (setup,
// Check, the start and end of an execution). It is package state because
// an atomic operation carries no context to find its controller by; hence
// one Explore at a time.
var running atomic.Pointer[thread]

// thread is one Scenario thread: a goroutine that runs only while it
// holds the turn.
type thread struct {
	r        *run
	id       int
	op       string // the operation it waits to perform
	steps    int    // scheduling points reached so far
	want     *Mutex // the lock that operation takes, if any
	spins    bool   // waits in Gosched for another thread's write
	quiet    bool   // no other thread has written since its last Gosched
	wake     chan bool
	done     bool
	aborting bool
}

// run is one execution. Whoever holds the turn (a thread at a scheduling
// point, or Explore before the first step and after the last) takes the
// next decision itself, so a thread that goes on switches no goroutine.
type run struct {
	o                     Options
	prefix                []int
	path                  []node
	alts                  []alt // every node's alternatives, end to end
	ts                    []*thread
	enabled, blocked      []int
	cur, frozen, preempts int
	starting              bool          // threads report their first scheduling point to Explore
	over                  chan struct{} // the turn back to Explore: a thread started or ended aborted, or the execution ended
	v                     *Violation
}

// yield makes the caller's next operation a scheduling point. The
// thread holding the turn records op and decides who runs next; any
// other goroutine (setup, Check, ordinary tests) goes straight on, as
// does a thread that is being aborted.
func yield(op string, want *Mutex) {
	t := running.Load()
	if t == nil || t.aborting {
		return
	}
	t.steps++
	t.op, t.want = op, want
	var next *thread
	if !t.r.starting {
		if next = t.r.decide(); next == t {
			return
		}
	}
	t.r.pass(next)
	if !<-t.wake {
		t.aborting = true
		runtime.Goexit()
	}
}

func (t *thread) start(f func()) {
	defer func() {
		t.done = true
		r, next := t.r, (*thread)(nil)
		if p := recover(); p != nil {
			r.v = r.fail("panic", fmt.Sprintf("thread %d: panic: %v", t.id, p))
		} else if !t.aborting && !r.starting {
			next = r.decide()
		}
		r.pass(next)
	}()
	if <-t.wake {
		f()
	}
}

// pass hands the turn to next, or with nil back to Explore.
func (r *run) pass(next *thread) {
	if running.Store(next); next == nil {
		r.over <- struct{}{}
	} else {
		next.wake <- true
	}
}

func (r *run) fail(kind, detail string) *Violation {
	v := &Violation{Kind: kind, Detail: detail}
	for _, n := range r.path {
		v.Schedule = append(v.Schedule, fmt.Sprintf("t%d %s", n.alts[n.k].t, n.op))
	}
	return v
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
	// One thread runs at a time: a single P hands the turn from goroutine
	// to goroutine without waking another OS thread.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := &run{o: o, over: make(chan struct{})}
	for {
		executions++
		if v := r.execute(setup()); v != nil || !r.next() {
			return executions, v
		}
	}
}

// next sets the prefix to the schedule after the path in depth-first
// order: the path up to its deepest decision with an untried alternative
// the bound still affords, then that alternative. It reports false when
// there is none.
func (r *run) next() bool {
	for d := len(r.path) - 1; d >= 0; d-- {
		n := r.path[d]
		for k := n.k + 1; k < len(n.alts); k++ {
			if !n.alts[k].preempt || n.preempts < r.o.Bound {
				r.prefix = r.prefix[:0]
				for _, n := range r.path[:d] {
					r.prefix = append(r.prefix, n.k)
				}
				r.prefix = append(r.prefix, k)
				return true
			}
		}
	}
	return false
}

// execute runs sc once, taking the decisions of the prefix and then the
// default ones: the running thread goes on while it can, else the
// lowest-numbered thread that can. Every thread is ended before it
// returns, finished or not.
func (r *run) execute(sc Scenario) *Violation {
	r.ts = make([]*thread, len(sc.Threads))
	r.path, r.alts = r.path[:0], r.alts[:0]
	r.cur, r.frozen, r.preempts, r.starting, r.v = -1, -1, 0, true, nil
	defer func() {
		for _, t := range r.ts {
			if t != nil && !t.done {
				t.wake <- false
				<-r.over
			}
		}
	}()
	for i, f := range sc.Threads {
		t := &thread{r: r, id: i, wake: make(chan bool)}
		r.ts[i] = t
		go t.start(f)
		r.pass(t)
		if <-r.over; r.v != nil {
			return r.v
		}
	}
	r.starting = false
	if next := r.decide(); next != nil {
		r.pass(next)
		<-r.over
	}
	if r.v == nil && r.frozen < 0 && sc.Check != nil {
		if err := sc.Check(); err != nil {
			r.v = r.fail("check", err.Error())
		}
	}
	return r.v
}

// decide takes the next scheduling decision and returns the thread it
// lets run, nil when none can (r.v then says why, if that is a failure).
func (r *run) decide() *thread {
	for {
		r.enabled, r.blocked = r.enabled[:0], r.blocked[:0]
		curOn := false
		for i, t := range r.ts {
			switch {
			case t.done || i == r.frozen:
			case t.spins, t.want != nil && t.want.held():
				r.blocked = append(r.blocked, i)
			default:
				r.enabled = append(r.enabled, i)
				curOn = curOn || i == r.cur
			}
		}
		if len(r.enabled) == 0 {
			if len(r.blocked) > 0 {
				r.v = r.fail("deadlock", fmt.Sprintf("threads %v wait for a lock that is never released or spin on a change nobody is left to make", r.blocked))
				r.v.Blocked = append([]int(nil), r.blocked...)
			}
			return nil
		}
		n := node{preempts: r.preempts}
		first := r.enabled[0]
		if curOn {
			first = r.cur
		}
		start := len(r.alts)
		r.alts = append(r.alts, alt{t: first})
		for _, j := range r.enabled {
			if j != first {
				r.alts = append(r.alts, alt{t: j, preempt: curOn})
			}
		}
		if r.o.Freeze && r.frozen < 0 {
			for _, j := range r.enabled {
				r.alts = append(r.alts, alt{t: j, freeze: true})
			}
		}
		n.alts = r.alts[start:len(r.alts):len(r.alts)]
		if d := len(r.path); d < len(r.prefix) {
			if n.k = r.prefix[d]; n.k >= len(n.alts) {
				r.v = r.fail("panic", "atomicx: the scenario is not deterministic: a replayed schedule diverged")
				return nil
			}
		}
		a := n.alts[n.k]
		if n.op = r.ts[a.t].op; a.freeze {
			n.op = "frozen before " + n.op
		}
		r.path = append(r.path, n)
		if a.preempt {
			r.preempts++
		}
		if a.freeze {
			r.frozen = a.t
			continue
		}
		r.cur = a.t
		if op := r.ts[a.t].op; op != "Gosched" && !strings.HasSuffix(op, ".Load") {
			for i, t := range r.ts {
				if i != a.t {
					t.spins, t.quiet = false, false
				}
			}
		}
		return r.ts[a.t]
	}
}
