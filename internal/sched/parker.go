package sched

// parker carries a single event from exactly one deliverer to the
// vessel goroutine that owns it: the deliverer writes its payload into
// plain vessel fields, then calls deliver; the owner returns from await
// and reads the payload. A send on a channel happens before the receive
// that takes it completes (the Go memory model), so the payload writes
// are ordered before the reads with no further synchronisation.
//
// The channel has capacity 1, which is what makes resume-before-park
// safe: a thief may steal a continuation and deliver the resume before
// the spawning strand has reached its await, and a blocked wait's waker
// may fire before the strand parks. Either way the delivery is a
// buffered send that finds the slot empty and returns at once; the late
// await takes it without blocking.
//
// At most one event is ever in flight per parker: vessels alternate
// strictly between awaiting a dispatch (owned by the strand that popped
// the vessel from a free list) and awaiting a resume (owned by whoever
// holds the vessel's published continuation or join), and each await
// consumes the event before the next deliverer can exist. deliver checks
// that invariant instead of trusting it: a second delivery while one is
// pending panics rather than blocking the deliverer forever.
type parker struct {
	wake chan struct{}
}

func (p *parker) init() {
	p.wake = make(chan struct{}, 1)
}

// deliver publishes the event. The caller must have written the payload
// fields it shares with the owner before calling.
//
//nowa:hotpath
func (p *parker) deliver() {
	//nowa:hotpath-ok the rendezvous itself: a non-blocking send into the one-slot buffer
	select {
	case p.wake <- struct{}{}: //nowa:hotpath-ok the rendezvous itself: the slot is empty whenever the one-event invariant holds
	default:
		panic("sched: parker delivery while another is pending (one event in flight per parker)")
	}
}

// await returns once an event has been delivered, consuming it.
//
//nowa:hotpath
func (p *parker) await() {
	<-p.wake //nowa:hotpath-ok the rendezvous itself: the owner sleeps until its one deliverer sends
}
