//go:build nowacheck

package nowa

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"nowa/internal/atomicx"
	"nowa/internal/cqs"
)

// The real Channel (channel.go and blocking.go over internal/cqs's
// segment list) under internal/atomicx's interleaving controller: every
// schedule of a few senders and receivers up to a preemption bound, each
// strand a proc of strand_check.go, each run on a fresh channel. A strand
// parked with nobody left to wake it is a deadlock. Run with
//
//	go test -tags nowacheck -run Check .

// chanRow is one scenario. Each sender sends items values; each receiver
// takes recvs of them, or with recvs 0 receives until ErrClosed while the
// last sender to finish closes the channel, or, with closeEarly, a closer
// thread closes it at any point. The strands named in abort (senders
// first, then receivers) wait under a context that a canceller thread
// cancels at any point; a strand stops at its first error.
type chanRow struct {
	name                         string
	capacity, senders, receivers int
	items, recvs                 int
	closeEarly                   bool
	abort                        []int
	// covers is a cell state that some execution must leave behind,
	// when the row exists to reach it.
	covers uint32
}

// chanOps are the Send and Recv a scenario runs: the channel's own, or a
// planted mutant.
type chanOps struct {
	send func(ch *Channel[int], p *proc, v int) error
	recv func(ch *Channel[int], p *proc) (int, error)
}

var realChan = chanOps{
	send: func(ch *Channel[int], p *proc, v int) error { return ch.Send(p, v) },
	recv: func(ch *Channel[int], p *proc) (int, error) { return ch.Recv(p) },
}

// chanRun is what one execution's threads saw.
type chanRun struct {
	ch      *Channel[int]
	senders int
	items   int
	acked   []bool  // the value's Send returned nil
	got     [][]int // per receiver, in order
	ends    []error // per receiver, its last error
}

// Delivery is what check demands of an acked value beyond at most once.
const (
	mayLose  = iota // a receiver stopped early
	buffered        // received, or left buffered
	received        // received: the receivers ran until ErrClosed
)

// check asserts that every value received was acked, that no value is
// received twice or both received and left buffered, that each receiver
// sees each sender's values in order, and that every acked value was
// delivered as demanded.
func (x *chanRun) check(demand int) error {
	n := x.senders * x.items
	seen := make([]int, n)
	left := leftovers(x.ch)
	if demand == received && len(left) > 0 {
		return fmt.Errorf("values %v left behind the last receiver", left)
	}
	for _, v := range left {
		seen[v]++
	}
	for c, vs := range x.got {
		last := make([]int, x.senders)
		for i := range last {
			last[i] = -1
		}
		for _, v := range vs {
			if v < 0 || v >= n || !x.acked[v] {
				return fmt.Errorf("receiver %d got %d, which no send delivered", c, v)
			}
			if s := v / x.items; v < last[s] {
				return fmt.Errorf("receiver %d got %d after %d", c, v, last[s])
			} else {
				last[s] = v
			}
			seen[v]++
		}
	}
	for v, k := range seen {
		switch {
		case k > 1:
			return fmt.Errorf("value %d received or buffered %d times", v, k)
		case k == 1 && !x.acked[v]:
			return fmt.Errorf("value %d buffered, but its send failed", v)
		case k == 0 && x.acked[v] && demand != mayLose:
			return fmt.Errorf("value %d acknowledged, then lost", v)
		}
	}
	return nil
}

// leftovers returns the items still buffered in ch: the buffered cells
// of the tickets no receive has taken.
func leftovers(ch *Channel[int]) []int {
	var vs []int
	var walk atomicx.Pointer[cqs.Segment[chanCell[int]]]
	seg := ch.recvSeg.Load()
	walk.Store(seg)
	for t := ch.receivers.Load(); t < ch.senders.Load()&^closedBit; t++ {
		if seg = cqs.Find(seg, &walk, t/cqs.SegSize); seg.ID() != t/cqs.SegSize {
			continue
		}
		if c := &seg.Cells[slot(t)]; c.state.v.Load() == cellBuffered {
			vs = append(vs, c.v)
		}
	}
	return vs
}

// cellsIn reports whether some cell of ch taken by a send is in state.
func cellsIn(ch *Channel[int], state uint32) bool {
	var walk atomicx.Pointer[cqs.Segment[chanCell[int]]]
	seg := ch.heads[0].Load()
	for _, h := range ch.heads {
		if h.Load().ID() < seg.ID() {
			seg = h.Load()
		}
	}
	walk.Store(seg)
	for t := seg.ID() * cqs.SegSize; t < ch.senders.Load()&^closedBit; t++ {
		if seg = cqs.Find(seg, &walk, t/cqs.SegSize); seg.ID() == t/cqs.SegSize && seg.Cells[slot(t)].state.v.Load() == state {
			return true
		}
	}
	return false
}

// scenario builds r; covered is set when an execution reaches r.covers.
func (r chanRow) scenario(o chanOps, covered *bool) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		ch := NewChannel[int](r.capacity)
		x := &chanRun{ch: ch, senders: r.senders, items: r.items,
			acked: make([]bool, r.senders*r.items),
			got:   make([][]int, r.receivers), ends: make([]error, r.receivers)}
		procs := make([]*proc, r.senders+r.receivers)
		var aborts []*abort
		for i := range procs {
			procs[i] = new(proc)
		}
		for _, i := range r.abort {
			a := new(abort)
			procs[i] = &proc{ctx: a}
			aborts = append(aborts, a)
		}
		var left atomicx.Int64
		left.Store(int64(r.senders))
		var threads []func()
		for s := range r.senders {
			threads = append(threads, func() {
				for i := range r.items {
					v := s*r.items + i
					if o.send(ch, procs[s], v) != nil {
						break
					}
					x.acked[v] = true
				}
				if r.recvs == 0 && !r.closeEarly && left.Add(-1) == 0 {
					ch.Close()
				}
			})
		}
		for c := range r.receivers {
			threads = append(threads, func() {
				for k := 0; r.recvs == 0 || k < r.recvs; k++ {
					v, err := o.recv(ch, procs[r.senders+c])
					if err != nil {
						x.ends[c] = err
						return
					}
					x.got[c] = append(x.got[c], v)
				}
			})
		}
		if r.closeEarly {
			threads = append(threads, ch.Close)
		}
		if len(aborts) > 0 {
			threads = append(threads, func() {
				for _, a := range aborts {
					a.Abort()
				}
			})
		}
		return atomicx.Scenario{Threads: threads, Check: func() error {
			if r.covers != cellEmpty && cellsIn(ch, r.covers) {
				*covered = true
			}
			demand := mayLose
			switch {
			case r.recvs == 0 && !slices.ContainsFunc(r.abort, func(i int) bool { return i >= r.senders }):
				demand = received
			case len(r.abort) == 0:
				demand = buffered
			}
			for c, err := range x.ends {
				if demand == received && !errors.Is(err, ErrClosed) {
					return fmt.Errorf("receiver %d ended with %v, want ErrClosed", c, err)
				}
			}
			return x.check(demand)
		}}
	}
}

var chanRows = []chanRow{
	{name: "cap1-2x2", capacity: 1, senders: 2, receivers: 2, items: 1, recvs: 1},
	{name: "cap2-2x2", capacity: 2, senders: 2, receivers: 2, items: 1, recvs: 1},
	{name: "cap2-2x2-until-close", capacity: 2, senders: 2, receivers: 2, items: 1},
	{name: "cap1-1x1-items2-close-early", capacity: 1, senders: 1, receivers: 1, items: 2, closeEarly: true},
	{name: "cap2-1x1-items3-close-early", capacity: 2, senders: 1, receivers: 1, items: 3, closeEarly: true},
	// A receiver that meets its sender's ticket taken and its cell
	// unwritten poisons the cell, and both retry.
	{name: "cap1-1x1-poisoned", capacity: 1, senders: 1, receivers: 1, items: 1, recvs: 1, covers: cellPoisoned},
	// A parked Send cancelled while a receive's bufferEnd advance
	// reaches its cell: the advance buffers it or moves past it. The
	// sender closes the channel once it is done or cancelled.
	{name: "cap1-1x1-send-cancelled", capacity: 1, senders: 1, receivers: 1, items: 2, abort: []int{0}, covers: cellSendAborted},
	// A parked Recv cancelled while a send hands it an item.
	{name: "cap1-1x1-recv-cancelled", capacity: 1, senders: 1, receivers: 1, items: 1, recvs: 1, abort: []int{1}, covers: cellRecvAborted},
	// Close racing a cancelled sender and a cancelled receiver.
	{name: "cap1-1x1-cancel-close", capacity: 1, senders: 1, receivers: 1, items: 2, closeEarly: true, abort: []int{0, 1}, covers: cellClosed},
}

// TestCheckChannel: under every schedule of at most two preemptions,
// nobody is left parked, no value is lost, doubled or delivered from a
// failed send, order holds per sender, and Close ends every receiver.
func TestCheckChannel(t *testing.T) {
	for _, r := range chanRows {
		t.Run(r.name, func(t *testing.T) {
			covered := false
			n, v := atomicx.Explore(atomicx.Options{Bound: 2}, r.scenario(realChan, &covered))
			if v != nil {
				t.Fatalf("after %d executions:\n%s", n, v)
			}
			if r.covers != cellEmpty && !covered {
				t.Fatalf("no execution of %d left a cell in state %d", n, r.covers)
			}
			t.Logf("%d executions at bound 2", n)
		})
	}
}

// cancelBesideSlot is a sender whose second send parks and is cancelled
// while the one receive's bufferEnd advance runs, and a second sender
// parked behind it, cancelled only after the receive is over. The
// advance must move past the cancelled cell to the second sender, so
// the second send cannot be cancelled too: it was woken first.
func cancelBesideSlot(o chanOps) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		ch := NewChannel[int](1)
		a, b := new(abort), new(abort)
		var received atomicx.Mutex
		received.Lock()
		var errA, errB error
		x := &chanRun{ch: ch, senders: 2, items: 2, acked: make([]bool, 4), got: make([][]int, 1), ends: make([]error, 1)}
		return atomicx.Scenario{Threads: []func(){
			func() {
				for i := range 2 {
					if errA = o.send(ch, &proc{ctx: a}, i); errA != nil {
						return
					}
					x.acked[i] = true
				}
			},
			func() {
				if errB = o.send(ch, &proc{ctx: b}, 2); errB == nil {
					x.acked[2] = true
				}
			},
			func() {
				v, err := o.recv(ch, new(proc))
				if x.ends[0] = err; err == nil {
					x.got[0] = append(x.got[0], v)
				}
				received.Unlock()
			},
			func() {
				a.Abort()
				received.Lock()
				b.Abort()
			},
		}, Check: func() error {
			if errA != nil && errB != nil && len(x.got[0]) == 1 {
				return fmt.Errorf("both parked sends cancelled after a receive freed a slot: %v, %v", errA, errB)
			}
			return x.check(mayLose)
		}}
	}
}

// handOffVsCancel is one receiver parked under a context that a
// canceller cancels while one send hands it its item.
func handOffVsCancel(o chanOps) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		ch := NewChannel[int](1)
		a := new(abort)
		x := &chanRun{ch: ch, senders: 1, items: 1, acked: make([]bool, 1), got: make([][]int, 1), ends: make([]error, 1)}
		return atomicx.Scenario{Threads: []func(){
			func() { x.acked[0] = o.send(ch, new(proc), 0) == nil },
			func() {
				v, err := o.recv(ch, &proc{ctx: a})
				if x.ends[0] = err; err == nil {
					x.got[0] = append(x.got[0], v)
				}
			},
			a.Abort,
		}, Check: func() error { return x.check(buffered) }}
	}
}

// TestCheckChannelCancelRows runs the two scenarios the mutants below
// break on the real channel.
func TestCheckChannelCancelRows(t *testing.T) {
	for name, sc := range map[string]func(chanOps) func() atomicx.Scenario{
		"cancel-beside-slot": cancelBesideSlot, "hand-off-vs-cancel": handOffVsCancel,
	} {
		n, v := atomicx.Explore(atomicx.Options{Bound: 2}, sc(realChan))
		if v != nil {
			t.Fatalf("%s: after %d executions:\n%s", name, n, v)
		}
		t.Logf("%s: %d executions at bound 2", name, n)
	}
}

// TestCheckChannelCatchesMutants plants the two bugs the cell protocol
// guards against, each in a test-local copy of the one path it breaks,
// and each must be reported. A bufferEnd advance that stops at a
// cancelled sender's cell leaves the sender behind it parked beside a
// free slot, so it is cancelled too; a hand-off that stores into a
// parked receiver's cell without the state CAS races the receiver's
// cancel, and the wait is woken twice.
func TestCheckChannelCatchesMutants(t *testing.T) {
	stopAtCancelled := chanOps{send: realChan.send, recv: func(ch *Channel[int], p *proc) (int, error) {
		return mutantRecv(ch, p)
	}}
	noHandOffCAS := chanOps{send: mutantSend, recv: realChan.recv}
	for _, c := range []struct {
		name string
		sc   func() atomicx.Scenario
		kind string
	}{
		{"advance-stops-at-cancelled", cancelBesideSlot(stopAtCancelled), "check"},
		{"hand-off-without-cas", handOffVsCancel(noHandOffCAS), "panic"},
	} {
		n, v := atomicx.Explore(atomicx.Options{Bound: 2}, c.sc)
		if v == nil || v.Kind != c.kind {
			t.Fatalf("%s: planted bug not reported as %s after %d executions: %v", c.name, c.kind, n, v)
		}
		t.Logf("%s: found after %d executions:\n%s", c.name, n, v)
	}
}

// mutantRecv is Recv whose bufferEnd advance stops at a cancelled
// sender's cell (mutantExpand); the rest is take's buffered path, the
// only one cancelBesideSlot's receive can meet before the advance.
func mutantRecv(ch *Channel[int], p *proc) (int, error) {
	for {
		start := ch.recvSeg.Load()
		r := ch.receivers.Add(1) - 1
		seg, c := cellOf(ch, start, &ch.recvSeg, r)
		if c == nil {
			continue
		}
		if c.state.v.Load() != cellBuffered {
			// Anything else: the real path, real advance included.
			if v, done, err := ch.take(p, seg, c, r); done {
				return v, err
			}
			continue
		}
		if c.state.v.CompareAndSwap(cellBuffered, cellDone) {
			v := c.v
			mutantExpand(ch, p)
			return v, nil
		}
	}
}

// cellOf finds ticket t's cell as Send and Recv do: nil when its
// segment was unlinked.
func cellOf(ch *Channel[int], start *cqs.Segment[chanCell[int]], cur *atomicx.Pointer[cqs.Segment[chanCell[int]]], t uint64) (*cqs.Segment[chanCell[int]], *chanCell[int]) {
	seg := start
	if seg.ID() != t/cqs.SegSize {
		if seg = ch.walk(start, cur, t); seg == nil {
			return nil, nil
		}
	}
	return seg, &seg.Cells[slot(t)]
}

// mutantExpand is expand without the step past a cancelled cell.
func mutantExpand(ch *Channel[int], p *proc) {
	start := ch.endSeg.Load()
	b := ch.bufferEnd.Add(1) - 1
	if b >= ch.senders.Load()&^closedBit {
		return
	}
	if seg, c := cellOf(ch, start, &ch.endSeg, b); c != nil {
		ch.admit(p, seg, c) // its "one cell further" dropped
	}
}

// mutantSend is Send whose hand-off to a parked receiver stores the item
// and wakes it without the CAS that claims the cell.
func mutantSend(ch *Channel[int], p *proc, v int) error {
	for {
		start := ch.sendSeg.Load()
		s := ch.senders.Add(1) - 1
		_, c := cellOf(ch, start, &ch.sendSeg, s)
		if c == nil {
			continue
		}
		if c.state.v.Load() == cellRecvWaiting {
			c.v = v
			p.WakeNext(c.w)
			return nil
		}
		if done, err := ch.put(p, c, s, v); done {
			return err
		}
	}
}
