package nowa

import (
	"runtime"
	"sync/atomic"

	"nowa/internal/cqs"
)

// Barrier is a reusable rendezvous for a fixed party count: Wait blocks
// the calling strand (releasing its worker token) until parties strands
// have arrived, upon which the last arrival trips the barrier, wakes the
// others, and a fresh generation begins — the cyclic-barrier pattern,
// abort-safe. A blocked arrival cancelled by its context withdraws its
// arrival (so the remaining parties are not stranded one short forever)
// and returns the context's error; an abort that loses the race against
// the trip relays the wakeup it can no longer use to the next waiter, so
// no arrival is ever left asleep.
//
//nowa:nopad barriers are individually heap-allocated; gens and cur are written once per trip, not per arrival
type Barrier struct {
	parties int
	gens    atomic.Uint64
	cur     atomic.Pointer[barrierGen]
}

// barrierGen is one generation's state: the arrival count and the waiter
// queue. Trip installs a fresh generation before draining the old one,
// so late arrivals and re-arrivals land on clean state.
//
//nowa:nopad one per trip, individually heap-allocated; every arrival writes count by design (it is the rendezvous)
type barrierGen struct {
	count atomic.Int64
	q     *cqs.Queue
}

// NewBarrier returns a barrier for the given party count (>= 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("nowa: NewBarrier requires parties >= 1")
	}
	b := &Barrier{parties: parties}
	b.cur.Store(&barrierGen{q: cqs.NewQueue()})
	return b
}

// Parties returns the configured party count.
func (b *Barrier) Parties() int { return b.parties }

// Generation returns the number of completed trips — the current
// generation index.
func (b *Barrier) Generation() uint64 { return b.gens.Load() }

// Wait arrives at the barrier and blocks until the current generation
// trips. The last arrival trips it and returns without blocking. A
// cancelled arrival returns its context's error with its arrival
// withdrawn; when the cancellation loses the race against the trip the
// strand passes the barrier normally (nil).
func (b *Barrier) Wait(c Ctx) error {
	p := procOf(c)
	for {
		g := b.cur.Load()
		n := g.count.Load()
		if n >= int64(b.parties) {
			// The tripper is installing the next generation; step past.
			runtime.Gosched()
			continue
		}
		if !g.count.CompareAndSwap(n, n+1) {
			continue
		}
		if n+1 == int64(b.parties) {
			b.trip(p, g)
			return nil
		}
		rearrive, err := b.await(p, g)
		if err != nil {
			return err
		}
		if !rearrive {
			return nil
		}
		// Planted chaos abort withdrew the arrival: arrive again, on
		// whichever generation is current by now.
	}
}

// trip completes generation g: install the successor first (late
// arrivals land there), then resume the parties-1 other arrivals.
// Aborted cells are withdrawn arrivals — their replacements arrive
// later in the queue, which is what keeps the resume count honest — and
// an arrival that incremented but has not registered yet is paid with a
// deposit it consumes at registration.
func (b *Barrier) trip(p *proc, g *barrierGen) {
	b.cur.Store(&barrierGen{q: cqs.NewQueue()})
	b.gens.Add(1)
	for need := b.parties - 1; need > 0; {
		h, oc := g.q.Resume()
		switch oc {
		case cqs.Woke:
			p.ChaosWakeDelay()
			h.(*waiter).Wake()
			need--
		case cqs.Deposited:
			need--
		case cqs.Aborted:
			// Withdrawn arrival: skip without consuming a wakeup.
		}
	}
}

// await parks one non-final arrival. rearrive is true when a planted
// chaos abort withdrew the arrival and the caller must arrive again; err
// is the context's error when the wait was genuinely cancelled.
func (b *Barrier) await(p *proc, g *barrierGen) (rearrive bool, err error) {
	bw := p.PrepareWait()
	t, registered := g.q.Enqueue(bw)
	if !registered {
		// Eliminated: the trip's deposit beat the registration CAS.
		return false, nil
	}
	if p.ChaosAbortWait() && b.abortArrival(g, t) {
		return true, nil
	}
	return false, parkWait(p, bw, arrival{b, g, t})
}

// arrival is one registered arrival's aborter: parkWait's cancellation
// arm withdraws it through abortArrival.
type arrival struct {
	b *Barrier
	g *barrierGen
	t cqs.Ticket
}

func (a arrival) TryAbort() bool { return a.b.abortArrival(a.g, a.t) }

// abortArrival withdraws one arrival from generation g: decrement the
// count (so the barrier does not sit one short forever), then abort the
// waiter cell. It returns true only when the cell was won — the caller
// owns the cancellation. Two races lose:
//
//   - The generation already tripped (count reached parties before the
//     decrement landed): the arrival is committed, the trip's wakeup is
//     in flight, nothing to withdraw.
//   - The decrement landed but the trip claimed the cell first: the trip
//     spent one of its parties-1 wakeups on an arrival that no longer
//     counts, leaving one genuine waiter short — so the loser relays the
//     stolen wakeup to the next live waiter before reporting failure.
//     (This is how parties+1 strands can pass one trip when an abort
//     races it: the aborter is resumed anyway, and every real arrival
//     still gets its wakeup.)
func (b *Barrier) abortArrival(g *barrierGen, t cqs.Ticket) bool {
	for {
		n := g.count.Load()
		if n >= int64(b.parties) {
			return false
		}
		if g.count.CompareAndSwap(n, n-1) {
			break
		}
	}
	if t.TryAbort() {
		return true
	}
	// Relay: hand the trip's wakeup we consumed to the next live waiter.
	for {
		h, oc := g.q.Resume()
		switch oc {
		case cqs.Woke:
			h.(*waiter).Wake()
			return false
		case cqs.Deposited:
			return false
		case cqs.Aborted:
			// Another withdrawn arrival; keep relaying.
		}
	}
}
