package sched

import (
	"sync"
	"sync/atomic"
)

// Admission outcome codes returned by tryAdmitLocked. Plain ints rather
// than error values so the locked fast path never boxes an interface.
const (
	admitOK     = iota // enqueued (victim non-nil when a shed paid for it)
	admitFull          // queue at its effective window; policy decides
	admitClosed        // service draining or closed; no new admissions
)

// subRing is one admission lane: a fixed-capacity FIFO ring of
// submissions. All access happens under the owning admitQueue's mutex;
// the ring itself is plain index arithmetic so the admission fast path
// stays free of allocation and channel traffic (the //nowa:hotpath
// analyzer keeps it that way).
type subRing struct {
	buf  []*Submission
	head int
	n    int
}

//nowa:hotpath
func (r *subRing) push(s *Submission) {
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
}

//nowa:hotpath
func (r *subRing) pop() *Submission {
	if r.n == 0 {
		return nil
	}
	s := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return s
}

// admitQueue is the bounded admission queue of a serving runtime: two
// priority lanes (SubmitOpts.Priority > 0 selects the high lane), a
// capacity shared between them, and an effective window that shrinks
// under governor pressure. Producers are external goroutines; consumers
// are the worker tokens that take a submission when they have no deque
// work (takeSubmission). The rings and closed live under mu.
//
//nowa:nopad one admitQueue per service, embedded in the service singleton; no adjacent instances to false-share with
type admitQueue struct {
	//nowa:lock level=4 name=adm.mu
	mu     sync.Mutex
	high   subRing
	norm   subRing
	capa   int
	policy OverloadPolicy
	closed bool

	// pressure is the governor grade (0 none, 1 mild, 2 severe) driving
	// the effective admission window; written by the supervisor's
	// pressure row (or SetAdmissionPressure's other callers), read on
	// every admission.
	pressure atomic.Int32

	// depth counts the items across both lanes, ≤ capa. Written under mu,
	// atomic so that thieves, the stall probe and ServiceStats read it
	// without the lock (service.takeNext says why that is sound).
	depth atomic.Int64

	spaceCh  chan struct{} // taker → blocked producer: a slot freed up
	closedCh chan struct{} // closed once, at drain start

	// Admission tallies, atomic so ServiceStats reads them without the
	// mutex. submitted counts every Submit attempt; admitted the ones
	// enqueued; rejected the FailFast/chaos refusals; shed the queued
	// victims evicted oldest-first; expired the submissions whose
	// deadline or context fired while still queued.
	submitted atomic.Int64
	admitted  atomic.Int64
	rejected  atomic.Int64
	shed      atomic.Int64
	expired   atomic.Int64
}

func (q *admitQueue) init(depth int, policy OverloadPolicy) {
	q.capa = depth
	q.policy = policy
	q.high.buf = make([]*Submission, depth)
	q.norm.buf = make([]*Submission, depth)
	q.spaceCh = make(chan struct{}, 1)
	q.closedCh = make(chan struct{})
}

// effWindow is the number of queue slots admission may currently use:
// the full capacity when the governor reports no pressure, half under
// mild pressure, a quarter under severe — never below one, so the
// service keeps trickling work instead of seizing up.
//
//nowa:hotpath
func (q *admitQueue) effWindow(grade int32) int {
	w := q.capa
	switch {
	case grade >= int32(gradeSevere):
		w = q.capa / 4
	case grade == int32(gradeMild):
		w = q.capa / 2
	}
	if w < 1 {
		w = 1
	}
	return w
}

// lane selects the ring a submission enqueues into.
//
//nowa:hotpath
func (q *admitQueue) lane(sub *Submission) *subRing {
	if sub.prio {
		return &q.high
	}
	return &q.norm
}

// tryAdmitLocked is the admission decision under mu: enqueue within the
// effective window; past it, shed the oldest queued submission when the
// policy is Shed or the pressure grade is severe (overload must never
// collapse into unbounded blocking then); otherwise report full and let
// the caller apply the Block/FailFast policy. The returned victim, if
// any, is no longer queued — the caller resolves its future outside the
// lock (resolution closes a channel, which must stay off this path).
//
//nowa:hotpath
func (q *admitQueue) tryAdmitLocked(sub *Submission, grade int32) (outcome int, victim *Submission) {
	if q.closed {
		return admitClosed, nil
	}
	if q.depth.Load() < int64(q.effWindow(grade)) {
		q.lane(sub).push(sub)
		q.depth.Add(1)
		return admitOK, nil
	}
	if q.policy == OverloadShed || grade >= int32(gradeSevere) {
		victim = q.popOldestLocked()
		if victim == nil && q.depth.Load() >= int64(q.capa) {
			// Nothing evictable and the rings are physically full; a
			// shrunken window with an empty queue cannot get here
			// (depth < eff would have admitted).
			return admitFull, nil
		}
		q.lane(sub).push(sub)
		q.depth.Add(1)
		return admitOK, victim
	}
	return admitFull, nil
}

// popOldestLocked evicts the oldest queued submission, preferring the
// normal lane so high-priority work survives overload longest.
//
//nowa:hotpath
func (q *admitQueue) popOldestLocked() *Submission {
	if s := q.norm.pop(); s != nil {
		q.depth.Add(-1)
		return s
	}
	if s := q.high.pop(); s != nil {
		q.depth.Add(-1)
		return s
	}
	return nil
}

// popNextLocked dequeues for a taking token: high lane first.
//
//nowa:hotpath
func (q *admitQueue) popNextLocked() *Submission {
	if s := q.high.pop(); s != nil {
		q.depth.Add(-1)
		return s
	}
	if s := q.norm.pop(); s != nil {
		q.depth.Add(-1)
		return s
	}
	return nil
}

// signal performs the non-blocking buffered-channel kick that tells a
// blocked producer to retry; a coalesced signal is fine because it
// re-checks the queue state after every wakeup.
func (q *admitQueue) signal() {
	select {
	case q.spaceCh <- struct{}{}:
	default:
	}
}

// close stops admission: Submit fails with ErrServiceClosed from here
// on, the tokens drain what is already queued, and every producer
// blocked on a full queue wakes and fails.
func (q *admitQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.closedCh)
}
