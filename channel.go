package nowa

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"nowa/internal/cqs"
	"nowa/internal/sched"
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
// The implementation is a ticketed ring (DESIGN.md §16.6): ticket t owns
// cell t%cap, whose seq reads 2t when free for send t, 2t+1 when it
// holds item t, and 2(t+cap) once receive t emptied it (Vyukov's bounded
// queue, doubled so that "holds t" and "free for t+1" differ at capacity
// 1). An operation that does not block CASes its own side's ticket,
// stores one seq and only reads the waiter queues, which are written
// when somebody goes to sleep. Items leave in ticket order and waiters
// are woken oldest first, but a woken strand retries rather than owning
// a slot, so a running strand may overtake it.
type Channel[T any] struct {
	// Written at construction, closed once: shared by both sides.
	cells  []chanCell[T]
	sendQ  *cqs.Queue // senders asleep on a full ring
	recvQ  *cqs.Queue // receivers asleep on an empty ring
	closed atomic.Bool
	_      [128]byte
	tail   atomic.Uint64 // next send ticket; senders only
	_      [120]byte
	head   atomic.Uint64 // next receive ticket; receivers only
	_      [120]byte
}

//nowa:nopad ring cells are packed on purpose: a line per cell would cost 128 B per buffered item, and a cell is written by one sender and one receiver per lap, not spun on
type chanCell[T any] struct {
	seq atomic.Uint64
	v   T
}

// Tickets and shared line a cache-line pair apart, whatever T is.
var chanGuard Channel[struct{}]

const (
	_ uintptr = unsafe.Offsetof(chanGuard.tail) - unsafe.Offsetof(chanGuard.closed) - 128
	_ uintptr = unsafe.Offsetof(chanGuard.head) - unsafe.Offsetof(chanGuard.tail) - 128

	// What claim wants of a cell's seq, as an offset from twice the ticket.
	free, full uint64 = 0, 1
)

// NewChannel returns a channel of the given capacity (>= 1: a rendezvous
// has no cell to hand an item over in).
func NewChannel[T any](capacity int) *Channel[T] {
	if capacity < 1 {
		panic("nowa: NewChannel requires capacity >= 1")
	}
	ch := &Channel[T]{cells: make([]chanCell[T], capacity), sendQ: cqs.NewQueue(), recvQ: cqs.NewQueue()}
	for i := range ch.cells {
		ch.cells[i].seq.Store(2 * uint64(i))
	}
	return ch
}

// Cap returns the buffer capacity.
func (ch *Channel[T]) Cap() int { return len(ch.cells) }

// Len returns the number of buffered items, unpublished tickets included.
func (ch *Channel[T]) Len() int {
	return max(0, min(int(ch.tail.Load()-ch.head.Load()), len(ch.cells)))
}

// Closed reports whether Close was called.
func (ch *Channel[T]) Closed() bool { return ch.closed.Load() }

// Send enqueues v, blocking while the buffer is full. It returns
// ErrClosed when the channel is closed or becomes so while the sender is
// blocked, and the context's error when the blocked strand was cancelled.
func (ch *Channel[T]) Send(c Ctx, v T) error {
	p := procOf(c)
	for !ch.closed.Load() {
		if t, cell := ch.claim(&ch.tail, free, true); cell != nil {
			cell.v = v
			cell.seq.Store(2*t + full)
			ch.wake(p, ch.recvQ, ch.sendQ, &ch.tail, free)
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
		if h, cell := ch.claim(&ch.head, full, true); cell != nil {
			var zero T
			v, cell.v = cell.v, zero
			cell.seq.Store(2 * (h + uint64(len(ch.cells))))
			ch.wake(p, ch.sendQ, ch.recvQ, &ch.head, full)
			return v, nil
		}
		switch {
		case !ch.closed.Load():
			err = blockOn(p, ch.recvQ, ch.recvReady)
		case ch.tail.Load() == ch.head.Load():
			err = ErrClosed
		default:
			runtime.Gosched() // a send holds a ticket it has yet to publish
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

// claim is the ring's try-send and try-receive: it returns the ticket in
// word (tail or head) and its cell once the cell's seq says free (full),
// taking the ticket if take is set, and a nil cell when the ring is full
// (empty). A seq behind the wanted one is exact, not stale: the ticket
// cannot have been taken while its cell never read so. A seq ahead, or a
// lost CAS, means another operation of this side succeeded.
//
//nowa:hotpath
func (ch *Channel[T]) claim(word *atomic.Uint64, want uint64, take bool) (uint64, *chanCell[T]) {
	for {
		t := word.Load()
		c := &ch.cells[t%uint64(len(ch.cells))]
		if seq := c.seq.Load(); seq < 2*t+want {
			return 0, nil
		} else if seq == 2*t+want && (!take || word.CompareAndSwap(t, t+1)) {
			return t, c
		}
	}
}

// sendReady and recvReady are the re-checks of a strand about to sleep.
func (ch *Channel[T]) sendReady() bool { return ch.ready(&ch.tail, free) }
func (ch *Channel[T]) recvReady() bool { return ch.ready(&ch.head, full) }
func (ch *Channel[T]) ready(word *atomic.Uint64, want uint64) bool {
	_, c := ch.claim(word, want, false)
	return c != nil || ch.closed.Load()
}

// wake runs after every successful operation: one waiter of the other
// side, for the cell just handed over, and one of the caller's own side
// if the ring still admits it — cells are published out of ticket order,
// so whoever unblocks ticket t may find t+1 usable and its wake spent.
//
//nowa:hotpath
func (ch *Channel[T]) wake(p *sched.Proc, other, own *cqs.Queue, word *atomic.Uint64, want uint64) {
	if other.Waiting() {
		wakeOne(p, other)
	}
	if own.Waiting() && ch.ready(word, want) {
		wakeOne(p, own)
	}
}
