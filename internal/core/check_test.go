//go:build nowacheck

package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"nowa/internal/atomicx"
	"nowa/internal/cqs"
	"nowa/internal/deque"
)

// The real joins on the real deques under internal/atomicx's interleaving
// controller, in §III-C's shape: a main path that spawns n times and then
// syncs, the child of each spawn, and one thief per spawn racing the
// child for its continuation, under every schedule up to a preemption
// bound. Run with
//
//	go test -tags nowacheck ./internal/core
//
// and `-run Naive -v` for the §III-C counterexample.

// cont is a published continuation: the main path after spawn i.
type cont struct{ spawn int }

// join is what the harness calls of a join protocol.
type join interface {
	OnSteal()
	OnChildJoin() bool
	SyncBegin() bool
	Rearm()
	Quiescent() bool
}

// composition is a deque algorithm, a join protocol and the steal that
// couples them, as the scheduler composes them (sched.popTopSteal).
type composition struct {
	deque func() deque.Deque[cont]
	join  func() join
	steal func(r *run, k, w int) (*cont, bool) // thief k's attempt on worker w
	// oneStep: every OnChildJoin and SyncBegin must take exactly one
	// shared-memory step, in every execution (wait-freedom, Eq. 5).
	oneStep bool
}

// popTop is the wait-free steal: a lock-free pop, then α++ by the main
// path the thief has become.
func popTop(r *run, k, w int) (*cont, bool) {
	c, o := r.deques[w].PopTopOutcome()
	if o != deque.StealHit {
		return nil, false
	}
	r.note("t%d: PopTop takes continuation %d from t%d", k, c.spawn, w)
	r.j.OnSteal()
	return c, true
}

func newCL() deque.Deque[cont]  { return deque.NewCL[cont](4) }
func newTHE() deque.Deque[cont] { return deque.NewTHE[cont](4) }

// nowaWith is Nowa's composition around a join built by j.
func nowaWith(j func() join) composition {
	return composition{deque: newCL, join: j, steal: popTop, oneStep: true}
}

var (
	nowaComp = nowaWith(func() join { return NewWaitFreeJoin() })
	fibril   = composition{deque: newTHE, join: func() join { return NewLockedJoin() }, steal: coupled}
	// naive is the §III-C straw man on the real CL deque: N_r counts the
	// active strands, the main one included, and the thief's increment
	// is a step of its own after the pop.
	naive = composition{deque: newCL, join: func() join { j := new(naiveJoin); j.Rearm(); return j }, steal: popTop}
)

// coupled is Fibril's steal: the scheduler's own.
func coupled(r *run, k, w int) (*cont, bool) {
	c, o := StealCoupled(r.deques[w].(*deque.THEDeque[cont]), func(*cont) *LockedJoin { return r.j.(*LockedJoin) })
	if o != deque.StealHit {
		return nil, false
	}
	r.note("t%d: PopTop takes continuation %d from t%d and counts the fork under both locks", k, c.spawn, w)
	return c, true
}

type naiveJoin struct{ n atomicx.Int64 }

func (j *naiveJoin) OnSteal()          { j.n.Add(1) }
func (j *naiveJoin) OnChildJoin() bool { return j.n.Add(-1) == 0 }
func (j *naiveJoin) SyncBegin() bool   { return j.n.Add(-1) == 0 }
func (j *naiveJoin) Rearm()            { j.n.Store(1) }
func (j *naiveJoin) Quiescent() bool   { return j.n.Load() == 1 }

// run is one execution. Thread 0 is worker 0, where the main path starts;
// thread k is thief k, worker k. Each worker owns one deque, and the
// controller runs one thread at a time, so the plain fields need no
// synchronisation.
type run struct {
	composition
	spawns   int
	j        join
	deques   []deque.Deque[cont]
	cur      int    // the worker running the main path
	done     []bool // child i returned and its pop or join is over
	atSync   bool   // the main path reached the explicit sync point
	released int
	log      []string
	bad      string // the first property broken
}

func (r *run) note(format string, a ...any) { r.log = append(r.log, fmt.Sprintf(format, a...)) }

func (r *run) fail(format string, a ...any) {
	if r.bad == "" {
		r.bad = fmt.Sprintf(format, a...)
	}
}

// call runs the join operation op and, for a wait-free join, checks the
// number of shared-memory steps it took.
func (r *run) call(name string, op func() bool) bool {
	s := atomicx.Steps()
	ok := op()
	if n := atomicx.Steps() - s; r.oneStep && n != 1 {
		r.fail("%s took %d shared-memory steps, want 1", name, n)
	}
	return ok
}

// release is the one release of the sync point: the main path goes on
// past it and re-arms the join for the next round.
func (r *run) release(who string) {
	r.released++
	r.note("%s releases the sync point", who)
	if !r.atSync {
		r.fail("premature release by %s: the main path has not reached the sync point", who)
	}
	if i := slices.Index(r.done, false); i >= 0 {
		r.fail("premature release by %s: child %d has not finished", who, i)
	}
	if r.released > 1 {
		r.fail("the sync point was released %d times", r.released)
	}
	r.j.Rearm()
}

// mainPath runs the main path on worker w from spawn i on: publish the
// continuation, run child i (its body is empty) and pop the continuation
// back. A miss is the child's implicit sync, and the worker is done: the
// thief that took the continuation runs the rest.
func (r *run) mainPath(w, i int) {
	d := r.deques[w]
	r.cur = w
	for ; i < r.spawns; i++ {
		d.PushBottom(&cont{spawn: i})
		if _, ok := d.PopBottom(); ok {
			r.done[i] = true
			r.note("t%d: child %d pops its continuation back", w, i)
			continue
		}
		r.note("t%d: child %d finds its continuation stolen and joins", w, i)
		ready := r.call("OnChildJoin", r.j.OnChildJoin)
		if r.done[i] = true; ready {
			r.release(fmt.Sprintf("t%d's OnChildJoin", w))
		}
		return
	}
	r.atSync = true
	r.note("t%d: the main path reaches the sync point", w)
	if r.call("SyncBegin", r.j.SyncBegin) {
		r.release(fmt.Sprintf("t%d's SyncBegin", w))
	}
}

// thief k makes one steal attempt on the worker running the main path
// and, when it takes a continuation, runs the main path on from there.
func (r *run) thief(k int) {
	atomicx.Gosched() // look for work: the victim is chosen after a scheduling point
	if c, ok := r.steal(r, k, r.cur); ok {
		r.mainPath(k, c.spawn+1)
	}
}

// check is the final property: one release, nothing broken on the way,
// and a join nobody will touch again.
func (r *run) check() error {
	if r.bad == "" && r.released == 0 {
		r.bad = "lost release: every thread returned and the sync point is still closed"
	}
	if lj, ok := r.j.(*LockedJoin); ok && r.bad == "" {
		if !lj.mu.TryLock() {
			r.bad = "the frame lock is held at quiescence"
		} else {
			lj.mu.Unlock()
		}
	}
	if r.bad == "" && !r.j.Quiescent() {
		r.bad = "the join is not quiescent at the end"
	}
	if r.bad == "" {
		return nil
	}
	return fmt.Errorf("%s\n  %s", r.bad, strings.Join(r.log, "\n  "))
}

// scenario builds c with the given spawns; last, if not nil, is set to
// each execution's run.
func (c composition) scenario(spawns int, last **run) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		r := &run{composition: c, spawns: spawns, j: c.join(), done: make([]bool, spawns)}
		for range spawns + 1 {
			r.deques = append(r.deques, c.deque())
		}
		if last != nil {
			*last = r
		}
		threads := []func(){func() { r.mainPath(0, 0) }}
		for k := 1; k <= spawns; k++ {
			threads = append(threads, func() { r.thief(k) })
		}
		return atomicx.Scenario{Threads: threads, Check: r.check}
	}
}

// TestCheckJoin: Nowa (CL and WaitFreeJoin) and Fibril (THE and
// LockedJoin, stolen through StealCoupled) release the sync point once,
// after every child returned and the main path reached it, under every
// schedule of at most two preemptions; nothing deadlocks and the join is
// quiescent at the end. Nowa's OnChildJoin and SyncBegin take one step
// each, in every execution. Each spawn more explores more schedules.
func TestCheckJoin(t *testing.T) {
	for _, c := range []struct {
		name string
		composition
	}{{"nowa", nowaComp}, {"fibril", fibril}} {
		prev := 0
		for spawns := 1; spawns <= 3; spawns++ {
			t.Run(fmt.Sprintf("%s-%dspawns", c.name, spawns), func(t *testing.T) {
				n, v := atomicx.Explore(atomicx.Options{Bound: 2}, c.scenario(spawns, nil))
				if v != nil {
					t.Fatalf("after %d executions:\n%s", n, v)
				}
				if n <= prev {
					t.Fatalf("%d executions, not more than %d with a spawn fewer", n, prev)
				}
				prev = n
				t.Logf("%d executions at bound 2", n)
			})
		}
	}
}

// TestCheckNaiveJoinCaught is §III-C on the real CL deque: a thief pops
// the continuation and, before its separate increment lands, the child
// finds the deque empty, decrements N_r to zero and releases the sync
// point the main path has not reached. It is found at every width.
func TestCheckNaiveJoinCaught(t *testing.T) {
	for spawns := 1; spawns <= 3; spawns++ {
		n, v := atomicx.Explore(atomicx.Options{Bound: 2}, naive.scenario(spawns, nil))
		if v == nil || v.Kind != "check" || !strings.Contains(v.Detail, "premature release") || !strings.Contains(v.Detail, "PopTop takes") {
			t.Fatalf("%d spawns: the naive join's premature release not found after %d executions: %v", spawns, n, v)
		}
		t.Logf("%d spawns: found after %d executions:\n%s", spawns, n, v)
	}
}

// TestCheckJoinCatchesMutants plants a bug in each protocol, and each
// must be reported: a restore of I_max − α + 1 releases early or never,
// a load-and-CAS OnChildJoin takes two steps where Eq. 5 takes one, and
// a Fibril steal that takes the frame lock after releasing the deque
// lock lets the child's decrement overtake the thief's increment.
func TestCheckJoinCatchesMutants(t *testing.T) {
	for _, c := range []struct {
		name string
		composition
		kind, detail string
	}{
		{"restore-off-by-one", nowaWith(func() join { return offByOne{NewWaitFreeJoin()} }), "check", "release"},
		{"cas-retry-join", nowaWith(func() join { return casJoin{NewWaitFreeJoin()} }), "check", "OnChildJoin took 2 shared-memory steps"},
		{"uncoupled-steal", composition{deque: newTHE, join: fibril.join, steal: uncoupled}, "panic", "count went negative"},
	} {
		n, v := atomicx.Explore(atomicx.Options{Bound: 2}, c.scenario(1, nil))
		if v == nil || v.Kind != c.kind || !strings.Contains(v.Detail, c.detail) {
			t.Fatalf("%s: planted bug not reported as %s %q after %d executions: %v", c.name, c.kind, c.detail, n, v)
		}
		t.Logf("%s: found after %d executions:\n%s", c.name, n, v)
	}
}

type offByOne struct{ *WaitFreeJoin }

func (j offByOne) SyncBegin() bool { return j.counter.Add(-(IMax - j.alpha + 1)) == 0 }

type casJoin struct{ *WaitFreeJoin }

func (j casJoin) OnChildJoin() bool {
	for {
		if v := j.counter.Load(); j.counter.CompareAndSwap(v, v-1) {
			return v == 1
		}
	}
}

// uncoupled is StealCoupled releasing the deque lock before it counts
// the fork under the frame lock.
func uncoupled(r *run, k, w int) (*cont, bool) {
	d := r.deques[w].(*deque.THEDeque[cont])
	d.Lock()
	c, o := d.PopTopLockedOutcome()
	d.Unlock()
	if o != deque.StealHit {
		return nil, false
	}
	r.note("t%d: PopTop takes continuation %d from t%d", k, c.spawn, w)
	r.j.OnSteal()
	return c, true
}

// TestCheckJoinFreeze is Eq. 5 against Listing 2 at the join: freezing
// any thread of a Nowa execution, anywhere, leaves every other thread's
// join operation able to finish; a Fibril thief frozen while it holds the
// frame lock (the first such schedule found freezes it in the SyncBegin
// of the main path it stole) leaves the child that joins blocked behind
// it for ever. That report is the expected outcome, and the controller
// must end every goroutine of the execution it stops on.
func TestCheckJoinFreeze(t *testing.T) {
	for spawns := 1; spawns <= 2; spawns++ {
		n, v := atomicx.Explore(atomicx.Options{Bound: 2, Freeze: true}, nowaComp.scenario(spawns, nil))
		if v != nil {
			t.Fatalf("nowa, %d spawns: a frozen thread stopped another after %d executions:\n%s", spawns, n, v)
		}
		t.Logf("nowa, %d spawns: %d executions, every unfrozen thread finished", spawns, n)
	}
	before := runtime.NumGoroutine()
	var last *run
	n, v := atomicx.Explore(atomicx.Options{Bound: 1, Freeze: true}, fibril.scenario(1, &last))
	if v == nil || v.Kind != "deadlock" || !slices.Equal(v.Blocked, []int{0}) ||
		!strings.HasSuffix(last.log[len(last.log)-1], "stolen and joins") {
		t.Fatalf("fibril: the joiner not reported blocked behind a frozen thief after %d executions: %v", n, v)
	}
	t.Logf("fibril: after %d executions:\n%s\n  %s", n, v, strings.Join(last.log, "\n  "))
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Explore, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// The wake queue under the same controller: pushers, poppers and a
// Pending reader on a zero-value WakeQueue (the first pushes race to
// link its queue). Built with the tag, cqs.segSize is 2, so a third
// ticket crosses a segment.

// wqRow is one scenario: the handles each pusher pushes, in order, the
// pops each popper makes, and whether a thread reads Pending.
type wqRow struct {
	name    string
	pushers []int
	pops    []int
	pending bool
}

// wqPush is the push a scenario runs: WakeQueue's own, or a mutant.
type wqPush func(q *WakeQueue[int], h int)

// scenario builds r. Check is conservation: after the threads, draining
// the queue yields every handle not popped, each handle leaves exactly
// once, and in push order per pusher when one thread popped; Pending
// reads true exactly while a handle is left. Concurrently, Pending may
// read false only once every push that returned before it has a pop
// started for it. deposited is set when an execution's pop claimed a
// ticket whose push had not registered, so the push took another.
func (r wqRow) scenario(push wqPush, deposited *bool) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		var q WakeQueue[int]
		total := 0
		for _, n := range r.pushers {
			total += n
		}
		got := make([][]int, len(r.pops))
		var pushed, popping int
		var bad string
		var threads []func()
		h := 0
		for _, n := range r.pushers {
			first := h
			h += n
			threads = append(threads, func() {
				for i := range n {
					push(&q, first+i)
					pushed++
				}
			})
		}
		for p, n := range r.pops {
			threads = append(threads, func() {
				for range n {
					popping++
					if h, ok := q.Pop(); ok {
						got[p] = append(got[p], h)
					}
				}
			})
		}
		if r.pending {
			threads = append(threads, func() {
				if owed := pushed - popping; !q.Pending() && owed > 0 {
					bad = fmt.Sprintf("Pending read false with %d returned pushes and %d pops started", pushed, popping)
				}
			})
		}
		return atomicx.Scenario{Threads: threads, Check: func() error {
			if bad != "" {
				return fmt.Errorf("%s", bad)
			}
			if wq := q.q.Load(); wq != nil && wq.Enqueued() > uint64(total) {
				*deposited = true
			}
			pending := q.Pending()
			var left []int
			for h, ok := q.Pop(); ok; h, ok = q.Pop() {
				left = append(left, h)
			}
			if pending != (len(left) > 0) {
				return fmt.Errorf("Pending read %v with %d handles left", pending, len(left))
			}
			seen := make([]int, total)
			for _, hs := range append(got, left) {
				for _, h := range hs {
					seen[h]++
				}
			}
			if i := slices.IndexFunc(seen, func(n int) bool { return n != 1 }); i >= 0 {
				return fmt.Errorf("handle %d left the queue %d times", i, seen[i])
			}
			if len(got) == 1 {
				order := append(got[0], left...)
				h := 0
				for _, n := range r.pushers {
					var mine []int
					for _, x := range order {
						if x >= h && x < h+n {
							mine = append(mine, x)
						}
					}
					if !slices.IsSorted(mine) {
						return fmt.Errorf("a pusher's handles left in the order %v", mine)
					}
					h += n
				}
			}
			return nil
		}}
	}
}

var wqRows = []wqRow{
	{name: "1x2-push-1x2-pop", pushers: []int{2}, pops: []int{2}},
	{name: "2x1-push-1x2-pop", pushers: []int{1, 1}, pops: []int{2}},
	{name: "1x2-push-2x1-pop", pushers: []int{2}, pops: []int{1, 1}},
	{name: "1x3-push-1x3-pop", pushers: []int{3}, pops: []int{3}},
	{name: "2x1-push-1x1-pop-pending", pushers: []int{1, 1}, pops: []int{1}, pending: true},
}

// TestCheckWakeQueue: under every schedule of at most two preemptions,
// no handle is lost or doubled, one pusher's handles leave in order,
// Pending never reads false over a returned push nobody pops, and some
// execution of each row takes the deposit → re-enqueue path.
func TestCheckWakeQueue(t *testing.T) {
	for _, r := range wqRows {
		t.Run(r.name, func(t *testing.T) {
			deposited := false
			n, v := atomicx.Explore(atomicx.Options{Bound: 2}, r.scenario((*WakeQueue[int]).Push, &deposited))
			if v != nil {
				t.Fatalf("after %d executions:\n%s", n, v)
			}
			if !deposited {
				t.Fatalf("no execution of %d took the deposit path", n)
			}
			t.Logf("%d executions at bound 2", n)
		})
	}
}

// TestCheckWakeQueueCatchesMutant plants a Push that returns when a pop's
// deposit took its ticket instead of registering under another: the pop
// came back empty, so the handle is lost.
func TestCheckWakeQueueCatchesMutant(t *testing.T) {
	pushOnce := func(w *WakeQueue[int], h int) {
		q := w.q.Load()
		if q == nil {
			w.q.CompareAndSwap(nil, cqs.NewQueue())
			q = w.q.Load()
		}
		q.Enqueue(h)
	}
	var deposited bool
	n, v := atomicx.Explore(atomicx.Options{Bound: 2}, wqRows[0].scenario(pushOnce, &deposited))
	if v == nil || v.Kind != "check" || !strings.Contains(v.Detail, "left the queue 0 times") {
		t.Fatalf("a push lost to a deposit not reported after %d executions: %v", n, v)
	}
	t.Logf("found after %d executions:\n%s", n, v)
}
