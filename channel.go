package nowa

import (
	_ "sync/atomic" // for the inline bodies of atomicx's aliases
	"unsafe"

	"nowa/internal/atomicx"
	"nowa/internal/cqs"
)

// Channel is a bounded MPMC channel for strands: Send blocks while the
// buffer is full, Recv while it is empty, both through the scheduler's
// external-wait protocol — the worker token is released for the duration
// and no goroutine is parked on a Go channel. Close wakes every blocked
// Send and Recv into ErrClosed; items sent before Close stay receivable
// after it, and every Send that returns nil is received by a receiver
// that runs until ErrClosed. A blocked operation is also abortable by its
// strand's context (RunCtx deadline, submission cancel): it gives its
// cell up and returns the context's error.
//
// The channel is one infinite array of cells (DESIGN.md §16.6) in
// internal/cqs's segment list: Send takes cell s with one FAA on senders,
// Recv takes cell r with one FAA on receivers, and send s meets receive s
// in cell s, whose state word settles with one CAS who came first. A send
// that finds its receiver parked hands it the item and wakes it; a
// receive that finds its sender parked takes the item and wakes it; a
// receive that finds its sender's cell still unwritten poisons it, and
// both retry. Capacity is bufferEnd, which every receive moves one cell
// on: a send below it stores its item and returns. Items leave in ticket
// order and a woken strand owns what it was woken for; a strand that
// retries takes a fresh ticket, so a running strand may overtake it.
type Channel[T any] struct {
	capacity uint64
	heads    [3]*atomicx.Pointer[cqs.Segment[chanCell[T]]] // the cursors below; read-only
	_        [128]byte
	// senders is the next send ticket, with closedBit set once Close ran;
	// sendEnd is a lower bound of bufferEnd that senders cache, so that a
	// send below it reads nothing receivers write.
	senders atomicx.Uint64
	sendEnd atomicx.Uint64
	sendSeg atomicx.Pointer[cqs.Segment[chanCell[T]]]
	_       [104]byte
	// receivers is the next receive ticket.
	receivers atomicx.Uint64
	recvSeg   atomicx.Pointer[cqs.Segment[chanCell[T]]]
	_         [112]byte
	// bufferEnd is the first send ticket that may not buffer: capacity
	// plus one per receive that spent its cell, plus one per cancelled
	// send it moved past. sendSeen is a lower bound of senders that
	// receivers cache, so that a receive below it reads nothing senders
	// write.
	bufferEnd atomicx.Uint64
	sendSeen  atomicx.Uint64
	endSeg    atomicx.Pointer[cqs.Segment[chanCell[T]]]
	_         [104]byte
	// sendWaiters counts the senders parked, or cancelled and not yet
	// moved past. Only a send that waits writes it, so while no sender
	// waits every receive reads it from its own cache, and the advance
	// looks at no cell.
	sendWaiters atomicx.Int64
	_           [120]byte
}

// The counters a cache-line pair apart, whatever T is.
var chanGuard Channel[struct{}]

const (
	_ uintptr = unsafe.Offsetof(chanGuard.senders) - unsafe.Offsetof(chanGuard.heads) - 128
	_ uintptr = unsafe.Offsetof(chanGuard.receivers) - unsafe.Offsetof(chanGuard.senders) - 128
	_ uintptr = unsafe.Offsetof(chanGuard.bufferEnd) - unsafe.Offsetof(chanGuard.receivers) - 128
	_ uintptr = unsafe.Offsetof(chanGuard.sendWaiters) - unsafe.Offsetof(chanGuard.bufferEnd) - 128
	_ uintptr = unsafe.Sizeof(chanGuard) - unsafe.Offsetof(chanGuard.sendWaiters) - 128

	closedBit uint64 = 1 << 63
)

// Cell states. A cell starts empty and its first visitor decides what it
// becomes: its sender (buffered, or a parked sender), its receiver (a
// parked receiver, or poisoned: the sender has its ticket and has not
// written) or Close. A parked cell ends done (the other side came),
// aborted (its context), closed, or — a parked sender — buffered, by
// bufferEnd's advance or by the sender's own re-check. One CAS per edge;
// a buffered cell stays buffered once its receive took the item.
const (
	cellEmpty uint32 = iota
	cellBuffered
	cellRecvWaiting
	cellSendWaiting
	cellDone
	cellRecvAborted
	cellSendAborted
	cellPoisoned
	cellClosed
)

// chanState is a cell's state word, split out of the generic cell so that
// the fsm analyzer checks its transitions once.
//
//nowa:nopad packed into chanCell; cells are spread over cache lines by slot, not padded
type chanState struct {
	//nowa:fsm phases=cellEmpty,cellBuffered,cellRecvWaiting,cellSendWaiting,cellDone,cellRecvAborted,cellSendAborted,cellPoisoned,cellClosed transitions=cellEmpty>cellBuffered,cellEmpty>cellRecvWaiting,cellEmpty>cellSendWaiting,cellEmpty>cellPoisoned,cellEmpty>cellClosed,cellRecvWaiting>cellDone,cellRecvWaiting>cellRecvAborted,cellRecvWaiting>cellClosed,cellSendWaiting>cellDone,cellSendWaiting>cellBuffered,cellSendWaiting>cellSendAborted,cellSendWaiting>cellClosed
	v atomicx.Uint32
}

// chanCell is one ticket's cell. The item and a parked strand are
// written before the CAS that publishes them and read after the CAS that
// claims them. At most one side ever parks in a cell, so one waiter
// field serves both (put).
type chanCell[T any] struct {
	state chanState
	v     T
	w     *waiter
}

// slot is where ticket t's cell sits in its segment: tickets are dealt
// alternately into the segment's two halves, so that consecutive
// tickets, which strands sharing the channel take at the same moment,
// fall on different cache lines, while a strand running through a batch
// still finds every other cell beside the last.
func slot(t uint64) uint64 {
	i := t % cqs.SegSize
	return i%2*(cqs.SegSize/2) + i/2
}

// NewChannel returns a channel of the given capacity (>= 1: a rendezvous
// has no cell to hand an item over in).
func NewChannel[T any](capacity int) *Channel[T] {
	if capacity < 1 {
		panic("nowa: NewChannel requires capacity >= 1")
	}
	ch := &Channel[T]{capacity: uint64(capacity)}
	ch.heads = [3]*atomicx.Pointer[cqs.Segment[chanCell[T]]]{&ch.sendSeg, &ch.recvSeg, &ch.endSeg}
	cqs.First(ch.heads[:])
	ch.bufferEnd.Store(ch.capacity)
	ch.sendEnd.Store(ch.capacity)
	return ch
}

// Cap returns the buffer capacity.
func (ch *Channel[T]) Cap() int { return int(ch.capacity) }

// Len returns the number of send tickets not yet matched by a receive
// ticket, at most the capacity: the items buffered or on their way.
func (ch *Channel[T]) Len() int {
	r := ch.receivers.Load()
	s := ch.senders.Load() &^ closedBit
	if s <= r {
		return 0
	}
	return int(min(s-r, ch.capacity))
}

// Closed reports whether Close was called.
func (ch *Channel[T]) Closed() bool { return ch.senders.Load()&closedBit != 0 }

// Send enqueues v, blocking while the buffer is full. It returns
// ErrClosed when the channel is closed or becomes so while the sender is
// blocked, and the context's error when the blocked strand was cancelled.
//
//nowa:hotpath
func (ch *Channel[T]) Send(c Ctx, v T) error {
	p := procOf(c)
	for {
		// The cursor snapshot precedes the ticket FAA (cqs.Find).
		start := ch.sendSeg.Load()
		s := ch.senders.Add(1) - 1
		if s&closedBit != 0 {
			return ErrClosed
		}
		seg := start
		if seg.ID() != s/cqs.SegSize {
			if seg = ch.walk(start, &ch.sendSeg, s); seg == nil {
				continue // unlinked: its receiver was cancelled
			}
		}
		if done, err := ch.put(p, &seg.Cells[slot(s)], s, v); done {
			return err
		}
		// The cell was spent: its receiver came first or was cancelled.
	}
}

// put offers v to cell c of ticket s; done is false when the cell is
// spent and the send must take another.
//
//nowa:hotpath
func (ch *Channel[T]) put(p *proc, c *chanCell[T], s uint64, v T) (done bool, err error) {
	var zero T
	if s < ch.sendEnd.Load() {
		// Below the cached bound the cell is most likely empty: claim it
		// for writing straight away rather than read it first.
		c.v = v
		if c.state.v.CompareAndSwap(cellEmpty, cellBuffered) {
			return true, nil
		}
		c.v = zero
	}
	for {
		switch c.state.v.Load() {
		case cellEmpty:
			// A send beyond bufferEnd parks unless its receiver has its
			// ticket already. A receiver parks only while its sender has
			// not taken its ticket, and each side takes its ticket before
			// it reads the other's counter: both cannot park in one cell.
			if s >= ch.sendEnd.Load() && s >= ch.refreshEnd() && s >= ch.receivers.Load() {
				if done, err := ch.parkSend(p, c, s, v); done {
					return true, err
				}
				continue
			}
			c.v = v
			if c.state.v.CompareAndSwap(cellEmpty, cellBuffered) {
				return true, nil
			}
			c.v = zero
		case cellRecvWaiting:
			if c.state.v.CompareAndSwap(cellRecvWaiting, cellDone) {
				c.v = v
				w := c.w
				c.w = nil
				resume(p, w)
				return true, nil
			}
		case cellClosed:
			return true, ErrClosed
		default: // cellPoisoned, cellRecvAborted, or its own planted abort
			return false, nil
		}
	}
}

// refreshSeen reloads senders into the receivers' cached bound, close
// bit included.
func (ch *Channel[T]) refreshSeen() uint64 {
	s := ch.senders.Load()
	ch.sendSeen.Store(s &^ closedBit)
	return s
}

// refreshEnd reloads bufferEnd into the senders' cached bound.
func (ch *Channel[T]) refreshEnd() uint64 {
	b := ch.bufferEnd.Load()
	ch.sendEnd.Store(b)
	return b
}

// parkSend parks the sender of ticket s in cell c with its item until a
// receive takes the item, bufferEnd's advance buffers it, or Close or
// the context ends the wait. done is false when the cell changed first
// or a planted self-abort gave it up: the caller looks at it again.
//
// The registered sender counts itself in sendWaiters, then reads
// bufferEnd once more; an advance moves bufferEnd, then reads
// sendWaiters. So either the sender sees bufferEnd past s and buffers
// its own item, or the advance that passes s looks at its cell.
//
//nowa:coldpath a send beyond bufferEnd blocks by design
func (ch *Channel[T]) parkSend(p *proc, c *chanCell[T], s uint64, v T) (done bool, err error) {
	bw := p.PrepareWait()
	c.v, c.w = v, bw
	if !c.state.v.CompareAndSwap(cellEmpty, cellSendWaiting) {
		var zero T
		c.v, c.w = zero, nil
		return false, nil
	}
	ch.sendWaiters.Add(1)
	if s < ch.refreshEnd() && c.state.v.CompareAndSwap(cellSendWaiting, cellBuffered) {
		c.w = nil
		ch.sendWaiters.Add(-1)
		return true, nil
	}
	// A cancelled sender stays counted until the advance moves past it.
	a := sendWait[T]{c}
	if p.ChaosAbortWait() && a.TryAbort() {
		return false, nil
	}
	if err := parkWait(p, bw, a); err != nil {
		return true, err
	}
	ch.sendWaiters.Add(-1)
	if c.state.v.Load() == cellClosed {
		var zero T
		c.v = zero
		return true, ErrClosed
	}
	return true, nil
}

// Recv dequeues the oldest item, blocking while the buffer is empty. A
// closed channel yields its buffered items first, then ErrClosed; a
// blocked strand cancelled by its context returns the context's error.
//
//nowa:hotpath
func (ch *Channel[T]) Recv(c Ctx) (T, error) {
	p := procOf(c)
	for {
		start := ch.recvSeg.Load()
		r := ch.receivers.Add(1) - 1
		seg := start
		if seg.ID() != r/cqs.SegSize {
			if seg = ch.walk(start, &ch.recvSeg, r); seg == nil {
				continue // unlinked: its sender was cancelled
			}
		}
		if v, done, err := ch.take(p, seg, &seg.Cells[slot(r)], r); done {
			return v, err
		}
		// The cell was spent: its sender was cancelled or had not
		// written, or Close took it.
	}
}

// take receives from cell c of ticket r, in segment seg; done is false
// when the cell is spent and the receive must take another.
//
//nowa:hotpath
func (ch *Channel[T]) take(p *proc, seg *cqs.Segment[chanCell[T]], c *chanCell[T], r uint64) (v T, done bool, err error) {
	for {
		switch c.state.v.Load() {
		case cellBuffered:
			// Nobody but this receive takes a buffered item, so the
			// cell is left as it is: no other party acts on a buffered
			// cell, taken or not.
			v, c.v = c.v, v
			ch.expand(p)
			return v, true, nil
		case cellSendWaiting:
			if c.state.v.CompareAndSwap(cellSendWaiting, cellDone) {
				v, c.v = c.v, v
				w := c.w
				c.w = nil
				resume(p, w)
				ch.expand(p)
				return v, true, nil
			}
		case cellEmpty:
			s := ch.sendSeen.Load()
			if r >= s {
				s = ch.refreshSeen()
			}
			switch {
			case r < s&^closedBit:
				// The sender has its ticket and has not written: take
				// the cell from it rather than wait, and both retry.
				if c.state.v.CompareAndSwap(cellEmpty, cellPoisoned) {
					ch.expand(p)
					return v, false, nil
				}
			case s&closedBit != 0:
				return v, true, ErrClosed
			default:
				if v, done, err := ch.parkRecv(p, seg, c); done {
					return v, true, err
				}
			}
		default: // cellSendAborted, cellClosed, or its own planted abort
			return v, false, nil
		}
	}
}

// parkRecv parks the receiver in cell c until a send hands it an item,
// or Close or the context ends the wait. done is false when the cell
// changed first or a planted self-abort gave it up: the caller looks at
// it again.
//
//nowa:coldpath a receive with no sender blocks by design
func (ch *Channel[T]) parkRecv(p *proc, seg *cqs.Segment[chanCell[T]], c *chanCell[T]) (v T, done bool, err error) {
	bw := p.PrepareWait()
	c.w = bw
	if !c.state.v.CompareAndSwap(cellEmpty, cellRecvWaiting) {
		c.w = nil
		return v, false, nil
	}
	// The cell is spent on this receive whatever ends the wait.
	ch.expand(p)
	a := recvWait[T]{seg, c}
	if p.ChaosAbortWait() && a.TryAbort() {
		return v, false, nil
	}
	if err := parkWait(p, bw, a); err != nil {
		return v, true, err
	}
	if c.state.v.Load() == cellClosed {
		return v, true, ErrClosed
	}
	v, c.v = c.v, v
	return v, true, nil
}

// expand moves bufferEnd one cell on, for a receive that spent its cell.
// While a sender waits, it also settles the cells it passes (pass).
//
//nowa:hotpath
func (ch *Channel[T]) expand(p *proc) {
	start := ch.endSeg.Load()
	b := ch.bufferEnd.Add(1) - 1
	if ch.sendWaiters.Load() != 0 {
		ch.pass(p, start, b)
	}
}

// pass settles cell b, which bufferEnd just passed, from start, the
// snapshot of the advance's cursor taken before b was claimed: a parked
// sender there is buffered and woken, and a cancelled one skipped —
// bufferEnd moves one cell further for it, and pass goes on with that
// cell. A cell not yet written needs nothing: a sender that parks in it
// reads bufferEnd afterwards.
//
//nowa:hotpath
func (ch *Channel[T]) pass(p *proc, start *cqs.Segment[chanCell[T]], b uint64) {
	for {
		if b >= ch.sendSeen.Load() && b >= ch.refreshSeen()&^closedBit {
			return // no send has ticket b yet
		}
		seg := start
		if seg.ID() != b/cqs.SegSize {
			if seg = ch.walk(start, &ch.endSeg, b); seg == nil {
				return // unlinked: its receiver was cancelled, and spent it
			}
		}
		if !ch.admit(p, seg, &seg.Cells[slot(b)]) {
			return
		}
		start = ch.endSeg.Load()
		b = ch.bufferEnd.Add(1) - 1
	}
}

// admit settles cell c in segment seg, which bufferEnd just passed; true
// when its sender was cancelled and the advance must go one cell further.
//
//nowa:hotpath
func (ch *Channel[T]) admit(p *proc, seg *cqs.Segment[chanCell[T]], c *chanCell[T]) bool {
	for {
		switch c.state.v.Load() {
		case cellSendWaiting:
			if c.state.v.CompareAndSwap(cellSendWaiting, cellBuffered) {
				w := c.w
				c.w = nil
				resume(p, w)
				return false
			}
		case cellSendAborted:
			ch.sendWaiters.Add(-1)
			seg.Kill()
			return true
		default: // unwritten, taken, poisoned, closed, or a receiver's
			return false
		}
	}
}

// walk finds ticket t's segment from start, the snapshot of cur taken
// before t was claimed (cqs.Find), for a ticket beyond start's segment;
// nil when t's segment was unlinked, every cell in it dead. A walk that
// moved on settles the segment it reached.
//
//nowa:hotpath
func (ch *Channel[T]) walk(start *cqs.Segment[chanCell[T]], cur *atomicx.Pointer[cqs.Segment[chanCell[T]]], t uint64) *cqs.Segment[chanCell[T]] {
	seg := cqs.Find(start, cur, t/cqs.SegSize)
	if seg.ID() != t/cqs.SegSize {
		return nil
	}
	ch.settle(cur, seg)
	return seg
}

// settle runs when a walk moved cursor cur on to seg. Once all three
// cursors have reached seg, its link to the segments before it is cut.
// A receive also drags the advance's cursor along when bufferEnd is
// already at or past seg, since no advance will look before seg again:
// an advance looks at cells only while a sender waits, so without that
// its cursor would stay behind and pin every segment after it.
//
//nowa:hotpath
func (ch *Channel[T]) settle(cur *atomicx.Pointer[cqs.Segment[chanCell[T]]], seg *cqs.Segment[chanCell[T]]) {
	id := seg.ID()
	if cur == &ch.recvSeg && ch.endSeg.Load().ID() < id && ch.bufferEnd.Load() >= id*cqs.SegSize {
		cqs.Advance(&ch.endSeg, seg)
	}
	if !seg.Settled() && ch.recvSeg.Load().ID() >= id && ch.sendSeg.Load().ID() >= id && ch.endSeg.Load().ID() >= id {
		seg.Settle()
	}
}

// Close latches the channel closed and wakes every blocked sender and
// receiver into ErrClosed. Idempotent and callable from any goroutine,
// including a shutting-down service's Close-drain sweep.
//
// Send tickets below the one the close bit lands on were taken before
// Close; those beyond both receivers and bufferEnd may still park, so
// their cells are closed. Receive tickets from there to the receivers
// counter have no send to meet, so theirs are closed too; a later
// receive reads the close bit itself. Each sweep walks from a cursor
// loaded before the counters that bound it, as a claimant's does
// (cqs.Find): the receive cursor has not passed ticket max(receivers,
// bufferEnd), nor the send cursor the close ticket.
func (ch *Channel[T]) Close() {
	s := ch.senders.Load()
	for ; s&closedBit == 0; s = ch.senders.Load() {
		if ch.senders.CompareAndSwap(s, s|closedBit) {
			seg := ch.recvSeg.Load()
			ch.closeCells(seg, max(ch.receivers.Load(), ch.bufferEnd.Load()), s)
			ch.closeCells(ch.sendSeg.Load(), s, ch.receivers.Load())
			return
		}
	}
}

// closeCells closes the cells of tickets [from, to) that are empty or
// hold a parked strand, waking the strand; seg is a cursor snapshot at
// or below from's segment.
func (ch *Channel[T]) closeCells(seg *cqs.Segment[chanCell[T]], from, to uint64) {
	var walk atomicx.Pointer[cqs.Segment[chanCell[T]]]
	walk.Store(seg)
	for t := from; t < to; t++ {
		seg = cqs.Find(seg, &walk, t/cqs.SegSize)
		if seg.ID() != t/cqs.SegSize {
			continue // unlinked: every cell in it cancelled
		}
		c := &seg.Cells[slot(t)]
		for again := true; again; {
			var w *waiter
			switch c.state.v.Load() {
			case cellEmpty:
				again = !c.state.v.CompareAndSwap(cellEmpty, cellClosed)
			case cellRecvWaiting:
				if again = !c.state.v.CompareAndSwap(cellRecvWaiting, cellClosed); !again {
					w, c.w = c.w, nil
				}
			case cellSendWaiting:
				if again = !c.state.v.CompareAndSwap(cellSendWaiting, cellClosed); !again {
					w, c.w = c.w, nil
				}
			default:
				again = false
			}
			if w != nil {
				w.Wake()
			}
		}
	}
}

// resume wakes the strand parked in a cell whose CAS the caller won.
//
//nowa:coldpath runs only when a strand is parked in the cell
func resume(p *proc, w *waiter) {
	p.ChaosWakeDelay()
	p.WakeNext(w)
}

// sendWait and recvWait are a parked strand's cell as parkWait's
// aborter. A won abort leaves the cell spent: a cancelled receiver's is
// dead once won, for the sender only skips it; a cancelled sender's is
// dead once bufferEnd's advance has moved past it (admit).
type sendWait[T any] struct{ c *chanCell[T] }

func (a sendWait[T]) TryAbort() bool {
	if !a.c.state.v.CompareAndSwap(cellSendWaiting, cellSendAborted) {
		return false
	}
	var zero T
	a.c.v, a.c.w = zero, nil
	return true
}

type recvWait[T any] struct {
	seg *cqs.Segment[chanCell[T]]
	c   *chanCell[T]
}

func (a recvWait[T]) TryAbort() bool {
	if !a.c.state.v.CompareAndSwap(cellRecvWaiting, cellRecvAborted) {
		return false
	}
	a.c.w = nil
	a.seg.Kill()
	return true
}
