//go:build nowacheck

package cqs

import (
	"fmt"
	"testing"

	"nowa/internal/atomicx"
)

// The real queue under internal/atomicx's interleaving controller: every
// schedule of a few enqueuers and resumers up to a preemption bound, each
// run on a fresh queue. Built with the tag, segSize is 2
// (segsize_check.go), so three tickets cross a segment boundary and two
// aborts unlink a segment. Run with
//
//	go test -tags nowacheck ./internal/cqs/...

// qops are the enqueue and resume a scenario runs: the queue's own, or a
// planted mutant.
type qops struct {
	enqueue func(q *Queue, h any) (Ticket, bool)
	resume  func(q *Queue) (any, Outcome)
}

var realQ = qops{(*Queue).Enqueue, (*Queue).Resume}

// qrow is one scenario: pre waiters registered before the threads start,
// of which one thread aborts those listed in abort, then one thread per
// enq string, which enqueues once per letter ('w' stays registered, 'a'
// aborts its cell at once), and one thread per res entry, which resumes
// that many times. There are as many resumes as enqueues, so every ticket
// is claimed by both sides.
type qrow struct {
	name  string
	pre   int
	abort []int
	enq   []string
	res   []int
}

// scenario builds r. Check is conservation by ticket: an eliminated
// enqueue meets a deposit, a won abort an Aborted outcome, and every
// other registered waiter is woken, exactly once.
func (r qrow) scenario(o qops) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		q := NewQueue()
		n := r.pre
		for _, s := range r.enq {
			n += len(s)
		}
		eliminated, aborted, woke := make([]bool, n), make([]bool, n), make([]int, n)
		var deposits, aborts int
		tickets := make([]Ticket, r.pre)
		for h := range r.pre {
			tickets[h], _ = o.enqueue(q, h)
		}
		var threads []func()
		if len(r.abort) > 0 {
			threads = append(threads, func() {
				for _, h := range r.abort {
					aborted[h] = tickets[h].TryAbort()
				}
			})
		}
		h := r.pre
		for _, s := range r.enq {
			first := h
			h += len(s)
			threads = append(threads, func() {
				for i, op := range s {
					t, ok := o.enqueue(q, first+i)
					eliminated[first+i] = !ok
					if ok && op == 'a' {
						aborted[first+i] = t.TryAbort()
					}
				}
			})
		}
		for _, k := range r.res {
			threads = append(threads, func() {
				for range k {
					switch h, oc := o.resume(q); oc {
					case Woke:
						woke[h.(int)]++
					case Deposited:
						deposits++
					case Aborted:
						aborts++
					}
				}
			})
		}
		return atomicx.Scenario{Threads: threads, Check: func() error {
			elim, won := 0, 0
			for h := range n {
				want := 1
				switch {
				case eliminated[h]:
					elim, want = elim+1, 0
				case aborted[h]:
					won, want = won+1, 0
				}
				if woke[h] != want {
					return fmt.Errorf("waiter %d woken %d times, want %d (eliminated %v, abort won %v)", h, woke[h], want, eliminated[h], aborted[h])
				}
			}
			if deposits != elim || aborts != won {
				return fmt.Errorf("%d deposits for %d eliminated enqueues, %d Aborted outcomes for %d won aborts", deposits, elim, aborts, won)
			}
			if q.Waiting() {
				return fmt.Errorf("an enqueue ticket is left unclaimed")
			}
			return nil
		}}
	}
}

func holds(t *testing.T, bound int, r qrow) {
	t.Helper()
	n, v := atomicx.Explore(atomicx.Options{Bound: bound}, r.scenario(realQ))
	if v != nil {
		t.Fatalf("%s, bound %d, after %d executions:\n%s", r.name, bound, n, v)
	}
	t.Logf("%s: %d executions at bound %d, conservation holds", r.name, n, bound)
}

// TestCQSCheckTickets: an enqueue against a resume (the resume may run
// ahead and deposit), an abort against a resume, two of each, tickets
// that cross into a second segment, and aborts that unlink the first
// segment (the dequeue cursor moves past it) or a middle one (its
// neighbours are stitched together) while resumers walk the list.
func TestCQSCheckTickets(t *testing.T) {
	for _, r := range []qrow{
		{name: "elimination", enq: []string{"w"}, res: []int{1}},
		{name: "abort-vs-resume", enq: []string{"a"}, res: []int{1}},
		{name: "2x2", enq: []string{"w", "a"}, res: []int{1, 1}},
		{name: "segment-advance", enq: []string{"ww", "w"}, res: []int{2, 1}},
		{name: "unlink-head", pre: 4, abort: []int{0, 1}, res: []int{2, 2}},
		{name: "unlink-middle", pre: 6, abort: []int{2, 3}, res: []int{3, 3}},
	} {
		t.Run(r.name, func(t *testing.T) { holds(t, 2, r) })
	}
}

// TestCQSCheckDrainBound: Drain (ResumeBounded under an Enqueued
// snapshot) against an enqueue that may land before or after the
// snapshot. The waiter registered before it is woken; the late one is
// woken or eliminated if its ticket fell under the bound, and is left
// registered, its ticket unclaimed, if not.
func TestCQSCheckDrainBound(t *testing.T) {
	n, v := atomicx.Explore(atomicx.Options{Bound: 2}, func() atomicx.Scenario {
		q := NewQueue()
		q.Enqueue(0)
		woke := make([]int, 3)
		registered := make([]bool, 3)
		late := func(h int) func() {
			return func() { _, registered[h] = q.Enqueue(h) }
		}
		drain := func() { q.Drain(func(h any) { woke[h.(int)]++ }) }
		return atomicx.Scenario{Threads: []func(){drain, late(1), late(2)}, Check: func() error {
			if woke[0] != 1 {
				return fmt.Errorf("the waiter registered before the drain woken %d times", woke[0])
			}
			left := 0
			for h := 1; h <= 2; h++ {
				if woke[h] > 1 || woke[h] == 1 && !registered[h] {
					return fmt.Errorf("late waiter %d woken %d times, registered %v", h, woke[h], registered[h])
				}
				if registered[h] && woke[h] == 0 {
					left++
				}
			}
			if got := q.Enqueued() - q.deqIdx.Load(); got != uint64(left) {
				return fmt.Errorf("%d late waiters left registered, %d tickets unclaimed", left, got)
			}
			return nil
		}}
	})
	if v != nil {
		t.Fatalf("after %d executions:\n%s", n, v)
	}
	t.Logf("%d executions at bound 2", n)
}

// The stalled-claimant race: a claimant that loads its segment cursor
// after the ticket FAA can find the cursor already moved past its
// segment by claimants a segment ahead. An enqueuer then walks to a
// later segment than its ticket's (Enqueue's mismatch panic), and a
// resumer classifies a registered waiter as aborted (a lost wakeup).

func enqueueCursorAfterFAA(q *Queue, h any) (Ticket, bool) {
	id := q.enqIdx.Add(1) - 1
	s := Find(q.enqSeg.Load(), &q.enqSeg, id/segSize)
	if s.id != id/segSize {
		panic("cqs: enqueue segment unlinked before registration")
	}
	c := &s.Cells[id%segSize]
	c.h = h
	if c.state.CompareAndSwap(cellEmpty, cellWaiter) {
		return Ticket{seg: s, idx: int32(id % segSize)}, true
	}
	c.h = nil
	return Ticket{}, false
}

func resumeCursorAfterFAA(q *Queue) (any, Outcome) {
	id := q.deqIdx.Add(1) - 1
	return q.resumeTicket(q.deqSeg.Load(), id)
}

func TestCQSCheckCatchesCursorAfterFAA(t *testing.T) {
	for _, c := range []struct {
		row  qrow
		ops  qops
		kind string
	}{
		{qrow{name: "enqueue", enq: []string{"w", "ww"}, res: []int{3}}, qops{enqueueCursorAfterFAA, (*Queue).Resume}, "panic"},
		{qrow{name: "resume", pre: 3, res: []int{1, 2}}, qops{(*Queue).Enqueue, resumeCursorAfterFAA}, "check"},
	} {
		n, v := atomicx.Explore(atomicx.Options{Bound: 2}, c.row.scenario(c.ops))
		if v == nil || v.Kind != c.kind {
			t.Fatalf("%s: cursor loaded after the FAA not reported as a %s after %d executions: %v", c.row.name, c.kind, n, v)
		}
		t.Logf("%s: found after %d executions:\n%s", c.row.name, n, v)
	}
}
