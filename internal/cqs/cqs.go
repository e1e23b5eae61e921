// Package cqs implements the abortable waiter queue underneath nowa's
// blocking primitives: a CancellableQueueSynchronizer-style segment
// queue (Koval, Alistarh, Elizarov — see PAPERS.md) of suspended
// strands, plus a counting semaphore built on it.
//
// The queue is an infinite logical array of cells addressed by two
// monotone ticket counters: every waiter claims an enqueue ticket with
// one FAA, every resumer claims a dequeue ticket with one FAA, and the
// pairing is by ticket number — there is no CAS retry loop on a shared
// head, so registration and resumption are lock-free and fair (FIFO by
// ticket). Cells live in fixed-size segments linked into a list; a
// segment whose cells were all aborted unlinks itself, so a storm of
// cancelled waiters leaves O(1) reachable segments rather than a chain
// proportional to the number of aborts.
//
// Each cell is an atomic state machine
//
//	empty → waiter → {resumed | aborted}
//	empty → resumed                       (deposit: resume ran ahead)
//
// with exactly one CAS per edge. Whoever wins the CAS that leaves the
// waiter state owns the handle stored in the cell: a resumer that wins
// waiter→resumed reads and wakes it, an aborter that wins
// waiter→aborted unlinks it, and neither can observe the other's
// outcome. The deposit edge empty→resumed handles the symmetric race
// where a resumer's ticket reaches the cell before the enqueuer's
// registration CAS: the enqueuer's CAS then fails, telling it the
// wakeup already happened so it must not park (elimination).
//
// Memory ordering: Go's sync/atomic operations are sequentially
// consistent, so the plain handle store that precedes the registration
// CAS happens-before any reader that observed the waiter state, and the
// ticket FAAs give every resumer/aborter pair a total order to disagree
// in — the cell CAS is the single arbitration point, which is the whole
// correctness argument for the abort-vs-resume race (DESIGN.md §16).
//
// The package is runtime-agnostic: handles are opaque `any` values
// (nowa's scheduler stores its *sched.Waiter) and nothing here parks or
// spins — callers decide what winning or losing a cell means.
package cqs

import (
	_ "sync/atomic" // for the inline bodies of atomicx's aliases

	"nowa/internal/atomicx"
)

// Cell states. A cell starts empty, is claimed by its enqueuer
// (waiter), and is finished exactly once: by a resumer (resumed, from
// either empty or waiter) or by an aborter (aborted, from waiter only).
const (
	cellEmpty uint32 = iota
	cellWaiter
	cellResumed
	cellAborted
)

// cell is one waiter slot. The handle h is written by the enqueuer
// before its registration CAS and read by whichever party wins the CAS
// out of the waiter state; the state word's seq-cst edges order those
// plain accesses, which is the same publication discipline the
// scheduler's dispatch/parker pair uses.
type cell struct {
	//nowa:fsm phases=cellEmpty,cellWaiter,cellResumed,cellAborted transitions=cellEmpty>cellWaiter,cellEmpty>cellResumed,cellWaiter>cellResumed,cellWaiter>cellAborted
	state atomicx.Uint32
	h     any
}

// segment is a block of waiter cells (list.go).
type segment = Segment[cell]

// Queue is the abortable waiter queue. Use NewQueue; the zero value is
// not ready (it has no initial segment).
type Queue struct {
	enqIdx atomicx.Uint64
	deqIdx atomicx.Uint64
	enqSeg atomicx.Pointer[segment]
	deqSeg atomicx.Pointer[segment]
	heads  [1]*atomicx.Pointer[segment] // what a dead head segment advances: deqSeg
}

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.heads[0] = &q.deqSeg
	q.enqSeg.Store(First(q.heads[:]))
	return q
}

// Outcome classifies what one dequeue ticket resolved to.
type Outcome int

const (
	// Woke: a registered waiter was claimed; the caller owns its handle
	// and must deliver the wakeup.
	Woke Outcome = iota
	// Deposited: the ticket's enqueuer had not registered yet; the
	// wakeup was left in the cell and the enqueuer will consume it at
	// registration (elimination). Nothing to deliver.
	Deposited
	// Aborted: the ticket's waiter cancelled first. The ticket is
	// spent; the caller typically claims another.
	Aborted
	// Drained: bounded resume only — every ticket below the bound was
	// already claimed.
	Drained
)

// Ticket identifies a registered cell so its waiter can abort it. The
// zero Ticket (from a failed Enqueue) aborts as a no-op.
type Ticket struct {
	seg *segment
	idx int32
}

// Enqueue claims the next enqueue ticket and registers handle h in its
// cell. It returns (ticket, true) when the caller is now a waiter and
// must park until resumed or abort via the ticket, and (zero, false)
// when a resumer's deposit ran ahead — the wakeup this waiter was going
// to park for has already happened, so the caller proceeds without
// parking.
func (q *Queue) Enqueue(h any) (Ticket, bool) {
	// The cursor snapshot MUST precede the ticket FAA (see Find):
	// loading it afterwards re-opens the stalled-claimant race, where
	// tickets >= segSize ahead advance the cursor past this segment
	// while we sit between the FAA and the load, and we would register
	// in (or deposit-fail against) another ticket's cell.
	start := q.enqSeg.Load()
	id := q.enqIdx.Add(1) - 1
	s := Find(start, &q.enqSeg, id/segSize)
	if s.id != id/segSize {
		// Impossible by construction: a segment unlinks only after all
		// segSize of its cells were aborted, and this ticket's cell
		// cannot reach aborted before the registration CAS below has
		// ever run. Fail loud rather than silently indexing into a
		// later segment — that would corrupt another ticket's cell.
		panic("cqs: enqueue segment unlinked before registration")
	}
	c := &s.Cells[id%segSize]
	c.h = h
	if c.state.CompareAndSwap(cellEmpty, cellWaiter) {
		return Ticket{seg: s, idx: int32(id % segSize)}, true
	}
	// Deposit ran ahead: the cell is already resumed. Drop the handle
	// so the retired segment does not pin the waiter.
	c.h = nil
	return Ticket{}, false
}

// Enqueued returns the number of enqueue tickets ever claimed — the
// bound Drain uses to avoid chasing waiters that register after the
// drain began.
func (q *Queue) Enqueued() uint64 { return q.enqIdx.Load() }

// Waiting reports whether an enqueue ticket is still unclaimed by any
// resumer — the read-only "is anyone asleep?" probe a primitive runs on
// its fast path before paying for a Resume. deqIdx is loaded first, so
// the answer is exact as of the enqIdx load: a waiter whose ticket FAA
// precedes that load is seen, which is the waker's half of the
// store-then-check / enqueue-then-recheck pairing (DESIGN.md §14).
func (q *Queue) Waiting() bool { return q.deqIdx.Load() < q.enqIdx.Load() }

// Resume claims the next dequeue ticket and resolves it: Woke with the
// waiter's handle, Deposited, or Aborted (never Drained).
func (q *Queue) Resume() (any, Outcome) {
	// Snapshot the cursor before the ticket FAA — the order is what
	// makes resumeTicket's segment-id mismatch check sound (see
	// Find).
	start := q.deqSeg.Load()
	return q.resumeTicket(start, q.deqIdx.Add(1)-1)
}

// ResumeOne is the wake-one rule: it spends dequeue tickets until one
// reaches a waiter, returning its handle and true for the caller to
// deliver to, or until a deposit lands or nobody waits, returning false.
// Aborted cells are stepped over: their waiter found what it parked for
// and is looking again, so the next sleeper is woken in its place.
func (q *Queue) ResumeOne() (any, bool) {
	for {
		h, oc := q.Resume()
		if oc == Woke {
			return h, true
		}
		if oc == Deposited || !q.Waiting() {
			return nil, false
		}
	}
}

// ResumeBounded is Resume restricted to tickets below bound (an
// Enqueued snapshot): it returns Drained instead of claiming a ticket
// at or past the bound, so a close/drain sweep terminates even while
// new waiters keep arriving. Bounded and unbounded claims mix safely —
// both go through the same deqIdx counter.
func (q *Queue) ResumeBounded(bound uint64) (any, Outcome) {
	for {
		// Same cursor-before-claim order as Resume: the snapshot must
		// precede the CAS that claims the ticket.
		start := q.deqSeg.Load()
		id := q.deqIdx.Load()
		if id >= bound {
			return nil, Drained
		}
		if q.deqIdx.CompareAndSwap(id, id+1) {
			return q.resumeTicket(start, id)
		}
	}
}

// Drain resumes every waiter registered before the call, invoking wake
// for each handle claimed. Deposits left in tickets whose enqueuers had
// not registered yet are consumed by those enqueuers as elimination;
// callers whose waiters retry (the future) have them look again after
// any wakeup.
func (q *Queue) Drain(wake func(any)) {
	bound := q.enqIdx.Load()
	for {
		h, oc := q.ResumeBounded(bound)
		switch oc {
		case Woke:
			wake(h)
		case Drained:
			return
		}
	}
}

// resumeTicket resolves one claimed dequeue ticket against its cell.
// start is the caller's deqSeg snapshot taken before the ticket claim.
func (q *Queue) resumeTicket(start *segment, id uint64) (any, Outcome) {
	s := Find(start, &q.deqSeg, id/segSize)
	if s.id != id/segSize {
		// The walk started below the ticket's segment (pre-claim
		// snapshot) and follows next pointers that only ever bypass
		// removed segments, so overshooting means the ticket's whole
		// segment was unlinked — which only happens once every cell in
		// it was aborted, ours included.
		return nil, Aborted
	}
	// A dequeue ticket in s is claimed, so every ticket of every earlier
	// segment is: nothing will look left of s again but Kill, and the
	// dequeue cursor, the queue's one head, has reached s.
	s.Settle()
	c := &s.Cells[id%segSize]
	if c.state.CompareAndSwap(cellEmpty, cellResumed) {
		return nil, Deposited
	}
	if c.state.CompareAndSwap(cellWaiter, cellResumed) {
		h := c.h
		c.h = nil
		return h, Woke
	}
	// Dequeue tickets are claimed exactly once, so the only way to
	// lose both CASes is an abort: the cell is cellAborted.
	return nil, Aborted
}

// TryAbort attempts to cancel the registered waiter. It returns true
// when the caller won the cell — the waiter will never be woken through
// it and must not park (or must unpark via its own channel's abort
// path) — and false when a resumer already claimed the cell, meaning a
// wakeup is in flight and must be consumed. On a win the cell's
// segment, once fully aborted, unlinks itself from the list.
func (t Ticket) TryAbort() bool {
	s := t.seg
	if s == nil {
		return false
	}
	c := &s.Cells[t.idx]
	if !c.state.CompareAndSwap(cellWaiter, cellAborted) {
		return false
	}
	c.h = nil
	s.Kill()
	return true
}

// Segments reports the number of segments reachable from the dequeue
// cursor — a boundedness probe for leak tests, not part of the waiter
// protocol.
func (q *Queue) Segments() int {
	n := 0
	for s := q.deqSeg.Load(); s != nil; s = s.next.Load() {
		n++
	}
	return n
}
