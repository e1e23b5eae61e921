package cqs

import "nowa/internal/atomicx"

// Semaphore is an abortable counting semaphore: the permit counter
// absorbs the fast path and the queue holds the slow path's waiters.
// The counter goes negative, with -permits equal to the number of
// acquirers that must register; the invariant that makes abort safe is
// that an aborted waiter never touches the counter — its compensation
// happens on the release side, where every aborted cell skipped by a
// release retries the increment, exactly cancelling the aborted
// acquirer's decrement. (An abort-side release would double-grant: with
// one permit held, an acquire that decrements to -1, aborts, and
// increments back would let a second acquire succeed while the first
// permit is still out.)
type Semaphore struct {
	permits atomicx.Int64
	q       *Queue
}

// NewSemaphore returns a semaphore holding n permits (n may be zero,
// e.g. the item side of an empty channel).
func NewSemaphore(n int64) *Semaphore {
	s := &Semaphore{q: NewQueue()}
	s.permits.Store(n)
	return s
}

// Acquire takes one permit, returning true on the fast path. On false
// the caller has committed a decrement and MUST follow through the slow
// path: Register and then either park until resumed or abort the
// ticket. Abandoning the decrement without a registered ticket skews
// the counter permanently.
func (s *Semaphore) Acquire() bool {
	return s.permits.Add(-1) >= 0
}

// Register enqueues the slow-path acquirer's handle. A false second
// return is the deposit/elimination case: a release already granted
// this acquirer its permit, so it proceeds without parking.
func (s *Semaphore) Register(h any) (Ticket, bool) {
	return s.q.Enqueue(h)
}

// Release returns one permit. When a registered waiter should receive
// it, Release claims that waiter and returns (handle, true) — the
// caller delivers the wakeup, outside any lock it holds. Otherwise the
// permit was banked in the counter or deposited for an in-flight
// acquirer, and Release returns (nil, false).
func (s *Semaphore) Release() (any, bool) {
	for {
		if s.permits.Add(1) > 0 {
			return nil, false
		}
		h, oc := s.q.Resume()
		switch oc {
		case Woke:
			return h, true
		case Deposited:
			return nil, false
		case Aborted:
			// The claimed ticket's acquirer cancelled. Its decrement is
			// still in the counter, so retry: re-increment and claim the
			// next ticket. This is the abort compensation.
		}
	}
}

// Drain wakes every currently registered waiter without granting
// permits — the close sweep. Callers pair it with a latched closed flag
// that woken waiters recheck; after a drain the permit counter is
// deliberately left skewed (the structure is dead).
func (s *Semaphore) Drain(wake func(any)) {
	s.q.Drain(wake)
}

// Permits returns the current counter value: positive is available
// permits, negative is waiters committed to the slow path.
func (s *Semaphore) Permits() int64 { return s.permits.Load() }

// Queue exposes the underlying waiter queue (leak probes in tests).
func (s *Semaphore) Queue() *Queue { return s.q }
