package deque

import "nowa/internal/atomicx"

// CLDeque is the dynamic circular work-stealing deque of Chase and Lev
// (SPAA'05), following the C11 formulation of Lê et al. (PPoPP'13). Both
// indices are monotonically increasing 64-bit counters that double as
// generation counters, so — unlike the ABP deque — space freed by PopTop is
// immediately reusable and the effective capacity never shrinks (§II-D).
//
// Go's sync/atomic operations are sequentially consistent, a strict
// strengthening of the acquire/release/relaxed fences the C11 algorithm
// needs, so the algorithm is correct as written. Garbage collection makes
// ring replacement safe without hazard pointers: a thief holding a stale
// ring can still read its slots; its subsequent CAS on top fails.
type CLDeque[T any] struct {
	top    atomicx.Int64 // next index thieves steal from
	_      [15]int64     // pad to 128 B: separate cache-line PAIRS (adjacent-line prefetcher)
	bottom atomicx.Int64 // next index the owner pushes at
	_      [15]int64
	ring   atomicx.Pointer[clRing[T]]
}

type clRing[T any] struct {
	mask  int64
	slots []atomicx.Pointer[T]
}

func newCLRing[T any](size int) *clRing[T] {
	return &clRing[T]{mask: int64(size - 1), slots: make([]atomicx.Pointer[T], size)}
}

func (r *clRing[T]) get(i int64) *T    { return r.slots[i&r.mask].Load() }
func (r *clRing[T]) put(i int64, x *T) { r.slots[i&r.mask].Store(x) }
func (r *clRing[T]) size() int64       { return r.mask + 1 }

// NewCL returns an empty Chase–Lev deque with the given initial capacity
// (rounded up to a power of two).
func NewCL[T any](capHint int) *CLDeque[T] {
	d := &CLDeque[T]{}
	d.ring.Store(newCLRing[T](roundUpPow2(capHint)))
	return d
}

// PushBottom appends x at the bottom end. Owner-only.
//
//nowa:hotpath
func (d *CLDeque[T]) PushBottom(x *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.size()-1 {
		r = d.grow(r, t, b)
	}
	r.put(b, x)
	d.bottom.Store(b + 1)
}

// grow replaces the ring with one twice the size, copying live elements.
// Only the owner calls grow; thieves may still read the old ring, which
// remains valid for the elements they can successfully CAS.
//
//nowa:coldpath ring doubling allocates by design and amortises to O(1) pushes; it runs O(log n) times over a deque's life
func (d *CLDeque[T]) grow(r *clRing[T], t, b int64) *clRing[T] {
	nr := newCLRing[T](int(r.size() * 2))
	for i := t; i < b; i++ {
		nr.put(i, r.get(i))
	}
	d.ring.Store(nr)
	return nr
}

// PopBottom removes the most recently pushed item. Owner-only.
//
//nowa:hotpath
func (d *CLDeque[T]) PopBottom() (*T, bool) {
	b := d.bottom.Load() - 1
	if d.top.Load() > b {
		return nil, false // empty, and no store: only the owner writes bottom, thieves only raise top
	}
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore the canonical empty state.
		d.bottom.Store(t)
		return nil, false
	}
	x := r.get(b)
	if t == b {
		// Single element left: race against thieves for it.
		if !d.top.CompareAndSwap(t, t+1) {
			// A thief won; the deque is now empty.
			x = nil
		}
		d.bottom.Store(t + 1)
		if x == nil {
			return nil, false
		}
	}
	return x, true
}

// PopTop steals the oldest item. Thief-safe. A false return means either
// empty or a lost race.
func (d *CLDeque[T]) PopTop() (*T, bool) {
	x, o := d.PopTopOutcome()
	return x, o == StealHit
}

// PopTopOutcome is PopTop distinguishing empty from a lost CAS race.
func (d *CLDeque[T]) PopTopOutcome() (*T, StealOutcome) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, StealEmpty
	}
	r := d.ring.Load()
	x := r.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, StealLost
	}
	return x, StealHit
}

// Size reports a best-effort element count.
func (d *CLDeque[T]) Size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
