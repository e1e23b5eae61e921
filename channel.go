package nowa

import (
	"nowa/internal/atomicx"
	"nowa/internal/cqs"
	"nowa/internal/ring"
)

// Channel is a bounded MPMC channel for strands: Send blocks while the
// buffer is full, Recv while it is empty, both through the scheduler's
// external-wait protocol — the worker token is released for the duration
// and no goroutine is parked on a Go channel. Close wakes every blocked
// Send and Recv into ErrClosed; items sent before Close stay receivable
// after it (a Send racing Close may land behind the last receiver). A
// blocked operation is also abortable by its strand's context (RunCtx
// deadline, submission cancel): it unregisters its waiter cell and
// returns the context's error.
//
// The buffer is internal/ring's ticketed ring (DESIGN.md §16.6): an
// operation that does not block CASes its own side's ticket, stores one
// seq and only reads the waiter queues, which are written when somebody
// goes to sleep. Items leave in ticket order and waiters are woken oldest
// first, but a woken strand retries rather than owning a slot, so a
// running strand may overtake it.
//
//nowa:nopad individually heap-allocated by NewChannel; its contended words are the ring's tickets, padded and guarded in internal/ring, and the fields beside them are written once
type Channel[T any] struct {
	ring   ring.Ring[T]
	sendQ  *cqs.Queue // senders asleep on a full ring
	recvQ  *cqs.Queue // receivers asleep on an empty ring
	closed atomicx.Bool
}

// NewChannel returns a channel of the given capacity (>= 1: a rendezvous
// has no cell to hand an item over in).
func NewChannel[T any](capacity int) *Channel[T] {
	if capacity < 1 {
		panic("nowa: NewChannel requires capacity >= 1")
	}
	ch := &Channel[T]{sendQ: cqs.NewQueue(), recvQ: cqs.NewQueue()}
	ch.ring.Init(capacity)
	return ch
}

// Cap returns the buffer capacity.
func (ch *Channel[T]) Cap() int { return ch.ring.Cap() }

// Len returns the number of buffered items, unpublished tickets included.
func (ch *Channel[T]) Len() int { return ch.ring.Len() }

// Closed reports whether Close was called.
func (ch *Channel[T]) Closed() bool { return ch.closed.Load() }

// Send enqueues v, blocking while the buffer is full. It returns
// ErrClosed when the channel is closed or becomes so while the sender is
// blocked, and the context's error when the blocked strand was cancelled.
func (ch *Channel[T]) Send(c Ctx, v T) error {
	p := procOf(c)
	for !ch.closed.Load() {
		if slot, ok := ch.ring.Claim(); ok {
			slot.Publish(v)
			ch.wake(p, true)
			return nil
		}
		if err := blockOn(p, ch.sendQ, ch.sendReady); err != nil {
			return err
		}
	}
	return ErrClosed
}

// Recv dequeues the oldest item, blocking while the buffer is empty. A
// closed channel yields its buffered items first, then ErrClosed; a
// blocked strand cancelled by its context returns the context's error.
func (ch *Channel[T]) Recv(c Ctx) (v T, err error) {
	p := procOf(c)
	for err == nil {
		var ok bool
		if v, ok = ch.ring.Get(); ok {
			ch.wake(p, false)
			return v, nil
		}
		switch {
		case !ch.closed.Load():
			err = blockOn(p, ch.recvQ, ch.recvReady)
		case ch.ring.Settled():
			err = ErrClosed
		default:
			atomicx.Gosched() // a send holds a ticket it has yet to publish
		}
	}
	return v, err
}

// Close latches the channel closed and wakes every blocked sender and
// receiver into the closed checks above. Idempotent and callable from
// any goroutine, including a shutting-down service's Close-drain sweep.
func (ch *Channel[T]) Close() {
	if ch.closed.Swap(true) {
		return
	}
	ch.sendQ.Drain(wakeHandle)
	ch.recvQ.Drain(wakeHandle)
}

// sendReady and recvReady are the re-checks of a strand about to sleep.
func (ch *Channel[T]) sendReady() bool { return ch.ring.CanPut() || ch.closed.Load() }
func (ch *Channel[T]) recvReady() bool { return ch.ring.CanGet() || ch.closed.Load() }

// wake runs after every successful operation: one waiter of the other
// side, for the cell just handed over, and one of the caller's own side
// if the ring still admits it — cells are published out of ticket order,
// so whoever unblocks ticket t may find t+1 usable and its wake spent.
//
//nowa:hotpath
func (ch *Channel[T]) wake(p *proc, sent bool) {
	other, own := ch.recvQ, ch.sendQ
	if !sent {
		other, own = own, other
	}
	if other.Waiting() {
		wakeOne(p, other)
	}
	if own.Waiting() && (sent && ch.sendReady() || !sent && ch.recvReady()) {
		wakeOne(p, own)
	}
}
