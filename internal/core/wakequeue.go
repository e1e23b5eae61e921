package core

import (
	_ "sync/atomic" // for the inline bodies of atomicx's aliases

	"nowa/internal/atomicx"
	"nowa/internal/cqs"
)

// WakeQueue is the scheduler's FIFO of wake handles (DESIGN.md §16.2):
// a waker on any goroutine pushes a blocked strand's handle, the next
// token to come free pops it. It is a typed adapter over one cqs.Queue
// whose cells are never aborted, so both ends are lock-free. The zero
// value is ready: first use links the queue.
type WakeQueue[H any] struct {
	q atomicx.Pointer[cqs.Queue]
}

// Push appends h. A pop that reached h's cell first left a deposit
// there; h then takes the next ticket. Push returns only once h is
// registered, so the waker's wake-one after it closes the park race.
//
//nowa:coldpath external wakeup only; Enqueue may link a fresh segment
func (w *WakeQueue[H]) Push(h H) {
	q := w.q.Load()
	if q == nil {
		w.q.CompareAndSwap(nil, cqs.NewQueue())
		q = w.q.Load()
	}
	for {
		if _, ok := q.Enqueue(h); ok {
			return
		}
	}
}

// Pop removes the oldest registered handle, if any. It spends only the
// tickets claimed before it began, leaving a deposit for a push still
// in flight.
//
//nowa:coldpath a wakeup is queued or a strand is blocking; Resume may link a fresh segment
func (w *WakeQueue[H]) Pop() (h H, ok bool) {
	q := w.q.Load()
	if q == nil {
		return h, false
	}
	for bound := q.Enqueued(); ; {
		v, oc := q.ResumeBounded(bound)
		if oc == cqs.Woke {
			return v.(H), true
		}
		if oc == cqs.Drained {
			return h, false
		}
	}
}

// Pending reports whether a push holds a ticket no pop has claimed.
// In-flight pushes count, so a pop can come back empty while Pending is
// true; a false read means every push completed before it was claimed,
// which is what the park and retirement gates need.
func (w *WakeQueue[H]) Pending() bool {
	q := w.q.Load()
	return q != nil && q.Waiting()
}
