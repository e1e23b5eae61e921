//go:build nowacheck

package nowa

import (
	"errors"
	"fmt"
	"testing"

	"nowa/internal/atomicx"
	"nowa/internal/cqs"
)

// The real Channel (channel.go and blocking.go over internal/ring and
// internal/cqs) under internal/atomicx's interleaving controller: every
// schedule of a few senders and receivers up to a preemption bound, each
// strand a proc of strand_check.go, each run on a fresh channel. A strand
// parked with nobody left to wake it is a deadlock. Run with
//
//	go test -tags nowacheck -run Check .

// chanRow is one scenario. Each sender sends items values; each receiver
// takes recvs of them, or with recvs 0 receives until ErrClosed while the
// last sender to finish closes the channel, or, with closeEarly, a closer
// thread closes it at any point.
type chanRow struct {
	name                         string
	capacity, senders, receivers int
	items, recvs                 int
	closeEarly                   bool
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

// scenario builds r. Check asserts that no value is received twice, that
// each receiver sees each sender's values in order, and that every value
// received was sent; with recvs set, or closing after the last send, also
// that every value is received and every send succeeded.
func (r chanRow) scenario(o chanOps) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		ch := NewChannel[int](r.capacity)
		n := r.senders * r.items
		acked := make([]bool, n)
		got := make([][]int, r.receivers)
		ends := make([]error, r.receivers)
		var left atomicx.Int64
		left.Store(int64(r.senders))
		var threads []func()
		for s := range r.senders {
			threads = append(threads, func() {
				p := new(proc)
				for i := range r.items {
					v := s*r.items + i
					acked[v] = o.send(ch, p, v) == nil
				}
				if r.recvs == 0 && !r.closeEarly && left.Add(-1) == 0 {
					ch.Close()
				}
			})
		}
		for c := range r.receivers {
			threads = append(threads, func() {
				p := new(proc)
				for k := 0; r.recvs == 0 || k < r.recvs; k++ {
					v, err := o.recv(ch, p)
					if err != nil {
						ends[c] = err
						return
					}
					got[c] = append(got[c], v)
				}
			})
		}
		if r.closeEarly {
			threads = append(threads, ch.Close)
		}
		return atomicx.Scenario{Threads: threads, Check: func() error {
			seen := make([]int, n)
			for c, vs := range got {
				last := make([]int, r.senders)
				for i := range last {
					last[i] = -1
				}
				for _, v := range vs {
					if v < 0 || v >= n || !acked[v] {
						return fmt.Errorf("receiver %d got %d, which no send delivered", c, v)
					}
					if s := v / r.items; v < last[s] {
						return fmt.Errorf("receiver %d got %d after %d", c, v, last[s])
					} else {
						last[s] = v
					}
					seen[v]++
				}
				if r.recvs == 0 && !errors.Is(ends[c], ErrClosed) {
					return fmt.Errorf("receiver %d ended with %v, want ErrClosed", c, ends[c])
				}
			}
			for v, k := range seen {
				if k > 1 || k == 0 && !r.closeEarly {
					return fmt.Errorf("value %d received %d times", v, k)
				}
			}
			return nil
		}}
	}
}

var chanRows = []chanRow{
	{name: "cap1-2x2", capacity: 1, senders: 2, receivers: 2, items: 1, recvs: 1},
	{name: "cap2-2x2", capacity: 2, senders: 2, receivers: 2, items: 1, recvs: 1},
	{name: "cap2-2x2-until-close", capacity: 2, senders: 2, receivers: 2, items: 1},
	{name: "cap1-1x1-items2-close-early", capacity: 1, senders: 1, receivers: 1, items: 2, closeEarly: true},
	{name: "cap2-1x1-items3-close-early", capacity: 2, senders: 1, receivers: 1, items: 3, closeEarly: true},
}

// TestCheckChannel: under every schedule of at most two preemptions,
// nobody is left parked, no value is lost or doubled, order holds per
// sender, and Close ends every receiver.
func TestCheckChannel(t *testing.T) {
	for _, r := range chanRows {
		t.Run(r.name, func(t *testing.T) {
			n, v := atomicx.Explore(atomicx.Options{Bound: 2}, r.scenario(realChan))
			if v != nil {
				t.Fatalf("after %d executions:\n%s", n, v)
			}
			t.Logf("%d executions at bound 2", n)
		})
	}
}

// chanMutant is Send and Recv as channel.go writes them, with the wake
// after an operation and the slow path swappable for planted bugs.
func chanMutant(wake func(ch *Channel[int], p *proc, sent bool), block func(p *proc, q *cqs.Queue, ready func() bool) error) chanOps {
	return chanOps{
		send: func(ch *Channel[int], p *proc, v int) error {
			for !ch.closed.Load() {
				if slot, ok := ch.ring.Claim(); ok {
					slot.Publish(v)
					wake(ch, p, true)
					return nil
				}
				if err := block(p, ch.sendQ, ch.sendReady); err != nil {
					return err
				}
			}
			return ErrClosed
		},
		recv: func(ch *Channel[int], p *proc) (v int, err error) {
			for err == nil {
				var ok bool
				if v, ok = ch.ring.Get(); ok {
					wake(ch, p, false)
					return v, nil
				}
				switch {
				case !ch.closed.Load():
					err = block(p, ch.recvQ, ch.recvReady)
				case ch.ring.Settled():
					err = ErrClosed
				default:
					atomicx.Gosched()
				}
			}
			return v, err
		},
	}
}

// TestCheckChannelCatchesLostWakeups plants the two lost wakeups the
// protocol guards against. Without the own-side wake a receiver sleeps
// beside the value published behind an unpublished head; without the
// re-check a receiver that registers after the sender looked for waiters
// sleeps beside that sender's value. Each must be reported as a strand
// left parked.
func TestCheckChannelCatchesLostWakeups(t *testing.T) {
	noChainWake := func(ch *Channel[int], p *proc, sent bool) {
		other := ch.recvQ
		if !sent {
			other = ch.sendQ
		}
		if other.Waiting() {
			wakeOne(p, other)
		}
	}
	noRecheck := func(p *proc, q *cqs.Queue, _ func() bool) error {
		bw := p.PrepareWait()
		tk, registered := q.Enqueue(bw)
		if !registered {
			return nil
		}
		return parkWait(p, bw, tk)
	}
	for _, c := range []struct {
		row chanRow
		ops chanOps
	}{
		{chanRows[1], chanMutant(noChainWake, blockOn)},
		{chanRows[0], chanMutant((*Channel[int]).wake, noRecheck)},
	} {
		n, v := atomicx.Explore(atomicx.Options{Bound: 2}, c.row.scenario(c.ops))
		if v == nil || v.Kind != "deadlock" {
			t.Fatalf("%s: planted lost wakeup not reported after %d executions: %v", c.row.name, n, v)
		}
		t.Logf("%s: found after %d executions:\n%s", c.row.name, n, v)
	}
}
