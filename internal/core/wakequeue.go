package core

import (
	"sync"
	"sync/atomic"
)

// WakeQueue is a small mutex-guarded FIFO of wake handles with an
// atomically readable pending count. The scheduler uses it to route
// external wakeups — a resumer or an abort firing from an arbitrary
// goroutine, off any worker token — to the thieves: the waker pushes
// the blocked strand's handle and wakes one parked thief, an idle thief
// pops it and hands over its token. The pending counter is the cheap gate
// both the steal loop and the park guard read without taking the lock;
// it is updated inside the critical section, so a nonzero count always
// means a pop will (or very recently did) succeed, and the waker's
// wake-one after the push closes the park race the same way deque
// publication does.
//
// This is cold-path machinery (a strand blocking on a future, channel,
// or barrier has already paid a park), so a plain mutex is the right
// tool — no lock-free ceremony.
type WakeQueue[H any] struct {
	pending atomic.Int64
	mu      sync.Mutex
	items   []H
	head    int
}

// Push appends a wake handle.
func (q *WakeQueue[H]) Push(h H) {
	q.mu.Lock()
	q.items = append(q.items, h)
	q.pending.Add(1)
	q.mu.Unlock()
}

// Pop removes the oldest handle, if any.
func (q *WakeQueue[H]) Pop() (H, bool) {
	var zero H
	if q.pending.Load() == 0 {
		return zero, false
	}
	q.mu.Lock()
	if q.head == len(q.items) {
		q.mu.Unlock()
		return zero, false
	}
	h := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.pending.Add(-1)
	q.mu.Unlock()
	return h, true
}

// Pending returns the number of queued handles. A zero read is only a
// hint to skip the lock; a waker wakes one parked thief after pushing,
// and a thief claims its idle-queue ticket before it checks Pending, so
// one of the two sees the other.
func (q *WakeQueue[H]) Pending() int64 {
	return q.pending.Load()
}
