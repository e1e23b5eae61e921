package deque

import "nowa/internal/atomicx"

// THEDeque implements the Tail/Head/Exception protocol of Cilk-5
// (Frigo, Leiserson, Randall — PLDI'98). The owner manipulates the tail
// (bottom) end without the lock as long as head and tail are
// non-conflicting; when they may refer to the same element — the
// "exception" — the owner falls back to the lock. Thieves always acquire
// the lock, which is the scalability limit §V-C measures: steals on a
// single victim serialise on its lock.
//
// Like the original, the deque is an array indexed by monotonically
// shifting head/tail; the owner resets both to zero whenever it observes
// the deque empty, reclaiming space. The array grows under the lock when
// full, standing in for Cilk-5's fixed-size deque with overflow abort.
type THEDeque[T any] struct {
	head  atomicx.Int64 // H: next index thieves steal from
	_     [15]int64     // pad to 128 B: separate cache-line PAIRS (adjacent-line prefetcher)
	tail  atomicx.Int64 // T: next index the owner pushes at
	_     [15]int64
	mu    atomicx.Mutex
	slots atomicx.Pointer[[]atomicx.Pointer[T]]
}

// NewTHE returns an empty THE deque with the given initial capacity.
func NewTHE[T any](capHint int) *THEDeque[T] {
	d := &THEDeque[T]{}
	s := make([]atomicx.Pointer[T], roundUpPow2(capHint))
	d.slots.Store(&s)
	return d
}

// PushBottom appends x at the tail. Owner-only, lock-free unless the
// backing array must grow.
func (d *THEDeque[T]) PushBottom(x *T) {
	t := d.tail.Load()
	s := *d.slots.Load()
	if t == int64(len(s)) {
		s = d.growLocked(t)
	}
	s[t].Store(x)
	d.tail.Store(t + 1)
}

// growLocked doubles the array under the lock. Head never moves backwards,
// so copying the [head, tail) window into the enlarged array (at the same
// absolute indices) is safe: thieves index the array absolutely.
//
//nowa:coldpath array doubling allocates and locks by design and amortises to O(1) pushes; it runs O(log n) times over a deque's life
func (d *THEDeque[T]) growLocked(t int64) []atomicx.Pointer[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.slots.Load()
	ns := make([]atomicx.Pointer[T], len(old)*2)
	h := d.head.Load()
	for i := h; i < t; i++ {
		ns[i].Store(old[i].Load())
	}
	d.slots.Store(&ns)
	return ns
}

// PopBottom removes the most recently pushed item using the THE protocol.
// Owner-only.
func (d *THEDeque[T]) PopBottom() (*T, bool) {
	t := d.tail.Load() - 1
	d.tail.Store(t)
	h := d.head.Load()
	if h > t {
		// Possible conflict with a thief: restore and retry under the lock.
		d.tail.Store(t + 1)
		d.mu.Lock()
		h = d.head.Load()
		if h > t {
			// Deque is genuinely empty. Reset indices to reclaim space.
			d.head.Store(0)
			d.tail.Store(0)
			d.mu.Unlock()
			return nil, false
		}
		d.tail.Store(t)
		d.mu.Unlock()
	}
	s := *d.slots.Load()
	x := s[t].Load()
	return x, true
}

// PopTop steals the oldest item. Thieves always take the lock.
func (d *THEDeque[T]) PopTop() (*T, bool) {
	d.mu.Lock()
	x, ok := d.PopTopLocked()
	d.mu.Unlock()
	return x, ok
}

// PopTopOutcome is PopTop distinguishing the failure modes.
func (d *THEDeque[T]) PopTopOutcome() (*T, StealOutcome) {
	d.mu.Lock()
	x, o := d.PopTopLockedOutcome()
	d.mu.Unlock()
	return x, o
}

// Lock acquires the deque lock. Exposed so a Fibril-style scheduler can
// overlap it with the frame lock during a steal (Listing 2 of the paper);
// pair with Unlock around PopTopLocked.
func (d *THEDeque[T]) Lock() { d.mu.Lock() }

// Unlock releases the deque lock.
func (d *THEDeque[T]) Unlock() { d.mu.Unlock() }

// PopTopLocked is PopTop for callers already holding Lock.
func (d *THEDeque[T]) PopTopLocked() (*T, bool) {
	x, o := d.PopTopLockedOutcome()
	return x, o == StealHit
}

// PopTopLockedOutcome is PopTopLocked distinguishing the failure modes:
// an empty pre-check read from a head bump undone after conflicting with
// the owner's concurrent PopBottom (the protocol's exception case).
func (d *THEDeque[T]) PopTopLockedOutcome() (*T, StealOutcome) {
	h := d.head.Load()
	if h >= d.tail.Load() {
		return nil, StealEmpty
	}
	d.head.Store(h + 1)
	if h+1 > d.tail.Load() {
		// Lost to the owner: undo.
		d.head.Store(h)
		return nil, StealLost
	}
	s := *d.slots.Load()
	x := s[h].Load()
	return x, StealHit
}

// Size reports a best-effort element count.
func (d *THEDeque[T]) Size() int {
	n := d.tail.Load() - d.head.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
