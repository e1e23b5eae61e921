package nowa

import (
	"sync"
	"sync/atomic"

	"nowa/internal/cqs"
	"nowa/internal/sched"
)

// Channel is a bounded MPMC channel for strands: Send blocks while the
// buffer is full, Recv while it is empty, and both block through the
// scheduler's external-wait protocol — the worker token is released for
// the duration and no goroutine is parked on a Go channel. Close latches
// the closed flag and drains both waiter queues, so a Send blocked on a
// full buffer and a Recv blocked on an empty one both unblock with
// ErrClosed; buffered items remain receivable after Close (drain-then-
// closed semantics). Every blocked operation is additionally abortable
// by its strand's context (RunCtx deadline, submission cancel): it
// unregisters its waiter cell and returns the context's error.
//
// The implementation is two cqs semaphores around a mutex-guarded ring:
// sendSem counts free slots, recvSem counts buffered items. The permit
// transfer is what makes the blocking abort-safe — aborted waiters are
// compensated on the release side (see cqs.Semaphore) — while the ring
// itself is plain mutual exclusion, never held across a park.
type Channel[T any] struct {
	sendSem *cqs.Semaphore // free slots; senders wait here
	recvSem *cqs.Semaphore // buffered items; receivers wait here
	closed  atomic.Bool

	mu   sync.Mutex
	buf  []T
	head int
	n    int
}

// NewChannel returns a channel with the given buffer capacity (>= 1;
// rendezvous channels would need a token with no slot behind it, which
// the permit accounting deliberately excludes).
func NewChannel[T any](capacity int) *Channel[T] {
	if capacity < 1 {
		panic("nowa: NewChannel requires capacity >= 1")
	}
	return &Channel[T]{
		sendSem: cqs.NewSemaphore(int64(capacity)),
		recvSem: cqs.NewSemaphore(0),
		buf:     make([]T, capacity),
	}
}

// Cap returns the buffer capacity.
func (ch *Channel[T]) Cap() int { return len(ch.buf) }

// Len returns the number of buffered items.
func (ch *Channel[T]) Len() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.n
}

// Closed reports whether Close was called.
func (ch *Channel[T]) Closed() bool { return ch.closed.Load() }

// Send enqueues v, blocking while the buffer is full. It returns
// ErrClosed when the channel is (or becomes) closed — including for a
// sender that was blocked when Close drained it — and the context's
// error when the blocked strand was cancelled.
func (ch *Channel[T]) Send(c Ctx, v T) error {
	p := procOf(c)
	if ch.closed.Load() {
		return ErrClosed
	}
	if !ch.sendSem.Acquire() {
		if err := awaitSem(p, ch.sendSem, &ch.closed); err != nil {
			return err
		}
	}
	if ch.closed.Load() {
		// Close raced the slot grant: fail without enqueueing. The slot
		// permit is not returned — post-close permit skew is accepted,
		// the semaphores are dead once closed (cqs.Semaphore.Drain).
		return ErrClosed
	}
	ch.put(v)
	p.ChaosWakeDelay()
	if h, ok := ch.recvSem.Release(); ok {
		h.(*sched.Waiter).Wake()
	}
	return nil
}

// Recv dequeues the oldest item, blocking while the buffer is empty. On
// a closed channel it drains the remaining buffered items first, then
// reports ErrClosed; a blocked strand cancelled by its context returns
// the context's error.
func (ch *Channel[T]) Recv(c Ctx) (T, error) {
	p := procOf(c)
	var zero T
	if ch.closed.Load() {
		if v, ok := ch.tryTake(); ok {
			return v, nil
		}
		return zero, ErrClosed
	}
	if !ch.recvSem.Acquire() {
		if err := awaitSem(p, ch.recvSem, &ch.closed); err != nil {
			return zero, err
		}
	}
	if v, ok := ch.tryTake(); ok {
		p.ChaosWakeDelay()
		if h, ok := ch.sendSem.Release(); ok {
			h.(*sched.Waiter).Wake()
		}
		return v, nil
	}
	// Only reachable after Close: on a live channel every item permit
	// has an item behind it (put precedes the recvSem release), while a
	// close drain wakes receivers the buffer cannot cover.
	return zero, ErrClosed
}

// Close latches the channel closed and releases every blocked sender
// and receiver (they unblock into the closed rechecks above). Buffered
// items stay receivable. Idempotent and callable from any goroutine —
// including the Close-drain sweep of a shutting-down service, which is
// how force-cancellation reaches strands blocked in a channel.
func (ch *Channel[T]) Close() {
	if ch.closed.Swap(true) {
		return
	}
	ch.sendSem.Drain(wakeHandle)
	ch.recvSem.Drain(wakeHandle)
}

// put appends v to the ring. The caller holds a slot permit, so the ring
// cannot be full.
func (ch *Channel[T]) put(v T) {
	ch.mu.Lock()
	ch.buf[(ch.head+ch.n)%len(ch.buf)] = v
	ch.n++
	ch.mu.Unlock()
}

// tryTake pops the oldest item if one is buffered.
func (ch *Channel[T]) tryTake() (T, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	var zero T
	if ch.n == 0 {
		return zero, false
	}
	v := ch.buf[ch.head]
	ch.buf[ch.head] = zero
	ch.head = (ch.head + 1) % len(ch.buf)
	ch.n--
	return v, true
}

// awaitSem is the slow path shared by Send and Recv: the caller's
// Acquire committed a decrement, so this registers the strand and parks
// it until a release transfers the permit, the close drain wakes it, or
// its context aborts it. A nil return means "woken or eliminated" — the
// caller rechecks the closed flag to tell a granted permit from a close
// sweep (the accepted post-close skew).
func awaitSem(p *sched.Proc, sem *cqs.Semaphore, closed *atomic.Bool) error {
	for {
		bw := p.PrepareWait()
		t, registered := sem.Register(bw)
		if !registered {
			// Eliminated: a release deposited the permit before the
			// registration CAS.
			p.AbandonWait(bw)
			return nil
		}
		if closed.Load() {
			// Close raced the registration; its drain bound may not have
			// covered this cell, so parking is not safe. Abort to find
			// out which side we are on.
			if t.TryAbort() {
				p.AbandonWait(bw)
				return nil
			}
			// Lost the cell: a wakeup is in flight — park to consume it.
		} else if p.ChaosAbortWait() && t.TryAbort() {
			// Planted self-abort. The aborted ticket's decrement will be
			// repaid by a release's skip-compensation, so the retry must
			// start from a fresh Acquire: a fresh decrement pairs with
			// the fresh ticket. Re-registering without it would leave one
			// decrement backing two tickets — a lost wakeup.
			p.AbandonWait(bw)
			if sem.Acquire() {
				return nil
			}
			continue
		}
		return parkWait(p, bw, t)
	}
}
