package sched

import (
	"runtime"
	"sync/atomic"

	"nowa/internal/ring"
)

// Admission outcome codes returned by tryAdmit. Plain ints rather than
// error values so the fast path never boxes an interface.
const (
	admitOK     = iota // enqueued (victim non-nil when a shed paid for it)
	admitFull          // queue at capacity; policy decides
	admitClosed        // service draining or closed; no new admissions
)

// admitQueue is the bounded admission queue of a serving runtime: one
// FIFO internal/ring ring of capa cells behind a depth gate bounding it
// by capa. Producers are external goroutines; consumers are the tokens
// that take a submission when they have no deque work (takeSubmission)
// and the shedding producers that evict the oldest. No lock: a producer
// raises depth and then claims a put ticket, a consumer gets and then
// lowers depth. So depth counts every submission queued or between those
// steps, and the ring never holds more items than depth: a put that
// finds its cell not yet free waits for a get that has claimed the cell
// and not yet emptied it, never for a taker to come.
//
//nowa:nopad one admitQueue per service, embedded in the service singleton; no adjacent instances to false-share with
type admitQueue struct {
	fifo   ring.Ring[*Submission]
	capa   int
	policy OverloadPolicy
	closed atomic.Bool

	// depth is the capacity gate. Thieves, the stall probe and ServiceStats
	// read it too (service.takeNext says why that is sound).
	depth atomic.Int64

	// blocked counts Block-policy producers waiting for a slot; only while
	// it is non-zero does a take kick spaceCh.
	blocked  atomic.Int32
	spaceCh  chan struct{} // taker → blocked producer: a slot freed up
	closedCh chan struct{} // closed once, at drain start

	// Admission tallies. submitted counts every Submit attempt; admitted
	// the ones enqueued; rejected the FailFast/chaos refusals; shed the
	// queued victims evicted oldest-first; expired the submissions whose
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
	q.fifo.Init(depth)
	q.spaceCh = make(chan struct{}, 1)
	q.closedCh = make(chan struct{})
}

// tryAdmit is the admission decision: below capacity, raise depth, then
// re-check closed — in that order, so that a drain check which saw
// closed set and depth zero saw every producer that will publish — and
// publish into the ring. At capacity, shed the oldest
// queued submission when the policy is Shed: the victim's unit passes to
// the newcomer, so depth stays put. Otherwise report full and let the
// caller apply Block or FailFast. A returned victim is out of the queue;
// the caller resolves its future.
func (q *admitQueue) tryAdmit(sub *Submission) (outcome int, victim *Submission) {
	for {
		d := q.depth.Load()
		switch {
		case d < int64(q.capa):
			if !q.depth.CompareAndSwap(d, d+1) {
				continue
			}
			if q.closed.Load() {
				q.depth.Add(-1)
				return admitClosed, nil
			}
		case q.closed.Load():
			return admitClosed, nil
		case q.policy != OverloadShed:
			return admitFull, nil
		default:
			if victim = q.take(); victim == nil {
				// Every unit is mid-admission or mid-take: look again.
				runtime.Gosched()
				continue
			}
		}
		for {
			if slot, ok := q.fifo.Claim(); ok {
				slot.Publish(sub)
				return admitOK, victim
			}
			runtime.Gosched() // a get has claimed this cell's last item
		}
	}
}

// waitAdmit is the Block policy's slow path. Counted in blocked first, so
// that every take from then on kicks spaceCh, it re-runs the admission
// decision after each kick until it lands, the queue closes or the
// submission's context ends (its error is returned).
func (q *admitQueue) waitAdmit(sub *Submission) (int, *Submission, error) {
	q.blocked.Add(1)
	defer q.blocked.Add(-1)
	for {
		if outcome, victim := q.tryAdmit(sub); outcome != admitFull {
			return outcome, victim, nil
		}
		select {
		case <-q.spaceCh:
		case <-q.closedCh:
			return admitClosed, nil, nil
		case <-sub.cs.Done():
			return admitFull, nil, sub.cs.Err()
		}
	}
}

// kickBlocked tells one blocked producer that a slot may have freed up. A
// coalesced kick is fine: the producer re-runs tryAdmit after each.
func (q *admitQueue) kickBlocked() {
	if q.blocked.Load() > 0 {
		select {
		case q.spaceCh <- struct{}{}:
		default:
		}
	}
}

// take dequeues the oldest queued submission, for a taking token and a
// shedding producer alike; nil when the ring is empty.
//
//nowa:hotpath
func (q *admitQueue) take() *Submission {
	s, _ := q.fifo.Get()
	return s
}

// close stops admission: Submit fails with ErrServiceClosed from here
// on, the tokens drain what is already queued, and every producer
// blocked on a full queue wakes and fails.
func (q *admitQueue) close() {
	if !q.closed.Swap(true) {
		close(q.closedCh)
	}
}
