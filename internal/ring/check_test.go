//go:build nowacheck

package ring

import (
	"fmt"
	"testing"

	"nowa/internal/atomicx"
)

// The real ring under internal/atomicx's interleaving controller: every
// schedule of a few producers and consumers up to a preemption bound,
// each run on a fresh ring. A put or get that fails spins in
// atomicx.Gosched until another thread has acted. Run with
//
//	go test -tags nowacheck ./internal/ring/...

// rrow is one scenario: producers put items values each, consumers get
// gets values each; the counts match.
type rrow struct {
	name             string
	capacity         int
	producers, items int
	consumers, gets  int
}

// rops are the put and get a scenario runs: the ring's own, or a planted
// mutant.
type rops struct {
	put func(r *Ring[int], v int) bool
	get func(r *Ring[int]) (int, bool)
}

var realRing = rops{
	put: func(r *Ring[int], v int) bool {
		s, ok := r.Claim()
		if ok {
			s.Publish(v)
		}
		return ok
	},
	get: (*Ring[int]).Get,
}

// scenario builds r. Check: every value is got exactly once, each
// consumer gets each producer's values in order, and the ring ends
// settled, empty and with room.
func (r rrow) scenario(o rops) func() atomicx.Scenario {
	return func() atomicx.Scenario {
		var q Ring[int]
		q.Init(r.capacity)
		n := r.producers * r.items
		got := make([][]int, r.consumers)
		var threads []func()
		for p := range r.producers {
			threads = append(threads, func() {
				for i := range r.items {
					for !o.put(&q, 1+p*r.items+i) {
						atomicx.Gosched()
					}
				}
			})
		}
		for c := range r.consumers {
			threads = append(threads, func() {
				for len(got[c]) < r.gets {
					if v, ok := o.get(&q); ok {
						got[c] = append(got[c], v)
					} else {
						atomicx.Gosched()
					}
				}
			})
		}
		return atomicx.Scenario{Threads: threads, Check: func() error {
			seen := make([]int, n+1)
			for c, vs := range got {
				last := make([]int, r.producers)
				for _, v := range vs {
					if v < 1 || v > n {
						return fmt.Errorf("consumer %d got %d, which nobody put", c, v)
					}
					if p := (v - 1) / r.items; v < last[p] {
						return fmt.Errorf("consumer %d got %d after %d", c, v, last[p])
					} else {
						last[p] = v
					}
					seen[v]++
				}
			}
			for v := 1; v <= n; v++ {
				if seen[v] != 1 {
					return fmt.Errorf("value %d got %d times", v, seen[v])
				}
			}
			if !q.Settled() || q.CanGet() || !q.CanPut() {
				return fmt.Errorf("drained ring reads settled %v, CanGet %v, CanPut %v", q.Settled(), q.CanGet(), q.CanPut())
			}
			return nil
		}}
	}
}

// TestRingCheck: at capacity 1 a cell that holds ticket t must not read
// free for t+1, and at capacity 2 cells are published and emptied out of
// ticket order; under every schedule of at most two preemptions no value
// is lost, doubled or reordered.
func TestRingCheck(t *testing.T) {
	for _, r := range []rrow{
		{name: "cap1-wrap", capacity: 1, producers: 1, items: 3, consumers: 1, gets: 3},
		{name: "cap1-2x2", capacity: 1, producers: 2, items: 1, consumers: 2, gets: 1},
		{name: "cap2-wrap", capacity: 2, producers: 1, items: 3, consumers: 1, gets: 3},
		{name: "cap2-2x2", capacity: 2, producers: 2, items: 1, consumers: 2, gets: 1},
	} {
		t.Run(r.name, func(t *testing.T) {
			n, v := atomicx.Explore(atomicx.Options{Bound: 2}, r.scenario(realRing))
			if v != nil {
				t.Fatalf("after %d executions:\n%s", n, v)
			}
			t.Logf("%d executions at bound 2", n)
		})
	}
}

// TestRingCheckCatchesUndoubledSeq plants Vyukov's own encoding, under
// which a cell reads l when free, l+1 when it holds its lap's value and
// l+cap once emptied: at capacity 1 "holds t" and "free for t+1" are both
// t+1, so a second put overwrites the value the get has yet to take.
func TestRingCheckCatchesUndoubledSeq(t *testing.T) {
	claim := func(r *Ring[int], word *atomicx.Uint64, want uint64) (uint64, *cell[int]) {
		t := word.Load()
		i := t % uint64(len(r.cells))
		c, l := &r.cells[i], t-i
		if c.seq.Load() != l+want || !word.CompareAndSwap(t, t+1) {
			return 0, nil
		}
		return l, c
	}
	undoubled := rops{
		put: func(r *Ring[int], v int) bool {
			l, c := claim(r, &r.tail, 0)
			if c != nil {
				c.v = v
				c.seq.Store(l + 1)
			}
			return c != nil
		},
		get: func(r *Ring[int]) (int, bool) {
			l, c := claim(r, &r.head, 1)
			if c == nil {
				return 0, false
			}
			v := c.v
			c.v = 0
			c.seq.Store(l + uint64(len(r.cells)))
			return v, true
		},
	}
	row := rrow{name: "cap1-wrap", capacity: 1, producers: 1, items: 2, consumers: 1, gets: 2}
	n, v := atomicx.Explore(atomicx.Options{Bound: 1}, row.scenario(undoubled))
	if v == nil {
		t.Fatalf("planted bug reported safe after %d executions: the check is blind", n)
	}
	t.Logf("found after %d executions:\n%s", n, v)
}
