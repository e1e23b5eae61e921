package cqs

import "nowa/internal/atomicx"

// SegSize is the number of cells per segment of a segmented array.
const SegSize = segSize

// Segment is one block of SegSize cells of an infinite array addressed
// by ticket: ticket t lives in Cells[t%SegSize] of the segment whose id
// is t/SegSize. Segments form a doubly linked list ordered by id; prev
// and next are maintained best-effort under concurrent removal (a removed
// segment stays traversable through its own next pointer, so a racing
// unlink can at worst leave a bounded tail of removed-but-reachable
// segments, never lose a live one). The Queue's waiter cells and
// nowa.Channel's item cells both live in segments; what a cell holds and
// when it is dead is the user's protocol.
type Segment[C any] struct {
	id    uint64
	heads []*atomicx.Pointer[Segment[C]] // the list's cursors, shared by every segment
	next  atomicx.Pointer[Segment[C]]
	prev  atomicx.Pointer[Segment[C]]
	dead  atomicx.Int64
	Cells [SegSize]C
}

// First returns segment 0 of a new list, stored in each of heads: the
// cursors that a dead first segment advances past (Kill).
func First[C any](heads []*atomicx.Pointer[Segment[C]]) *Segment[C] {
	s := &Segment[C]{heads: heads}
	for _, h := range heads {
		h.Store(s)
	}
	return s
}

// ID returns the segment's id: its first ticket is ID()*SegSize.
func (s *Segment[C]) ID() uint64 { return s.id }

// removed reports whether every cell in s is dead, which is the
// (latched) condition under which s unlinks itself.
func (s *Segment[C]) removed() bool { return s.dead.Load() >= SegSize }

// Find walks (and extends) the segment list from start — the caller's
// cursor snapshot — to the segment with the given id, advancing the
// cursor as a side effect. If that segment was unlinked, the first live
// segment with a greater id is returned; the caller detects the
// mismatch and treats the ticket's cell as dead.
//
// The snapshot MUST be taken before the caller's ticket FAA/CAS, and
// that order carries the whole mismatch argument. At snapshot time
// every ticket yet claimed is below ours, so the cursor — advanced only
// by those claimants' walks and by Kill's unlink, which skips nothing
// but segments whose cells are all dead — cannot have passed our
// segment while our cell is live. Walking forward from the snapshot can
// then overshoot only by following a next pointer restitched around a
// removed segment, so id mismatch genuinely implies "every cell in the
// ticket's segment is dead". Loading the cursor after the claim instead
// would let a claimant that stalls between its FAA and the load observe
// a cursor pushed past its still-live segment by claimants >= SegSize
// ahead — misclassifying a registered waiter as aborted (a lost wakeup)
// on the resume side, or registering into another ticket's cell on the
// enqueue side.
func Find[C any](start *Segment[C], cur *atomicx.Pointer[Segment[C]], id uint64) *Segment[C] {
	s := start
	for s.id < id {
		next := s.next.Load()
		if next == nil {
			next = s.grow()
		}
		s = next
	}
	Advance(cur, s)
	return s
}

// grow appends a segment after the tail s and returns s's successor.
//
//nowa:coldpath one allocation per SegSize tickets
func (s *Segment[C]) grow() *Segment[C] {
	fresh := &Segment[C]{id: s.id + 1, heads: s.heads}
	fresh.prev.Store(s)
	if !s.next.CompareAndSwap(nil, fresh) {
		return s.next.Load()
	}
	if s.removed() {
		// s died as the tail, which remove leaves linked: unlink it now
		// that it has a successor.
		s.remove()
	}
	return fresh
}

// Settle cuts s's link to its predecessors. The caller vouches that
// nothing will look left of s again but Kill, for which a nil prev means
// "head", and that every head cursor (First's) has reached s. Cutting
// the link is what lets a long-lived list's spent segments be
// collected.
func (s *Segment[C]) Settle() {
	if !s.Settled() {
		s.prev.Store(nil)
	}
}

// Settled reports whether s's link to its predecessors is cut.
func (s *Segment[C]) Settled() bool { return s.prev.Load() == nil }

// Kill counts one cell of s dead: no party will act on it again but to
// find it dead. The SegSize-th kill unlinks s.
func (s *Segment[C]) Kill() {
	if s.dead.Add(1) == SegSize {
		s.remove()
	}
}

// remove unlinks the dead segment s. Best-effort under races: the tail
// segment is not removed (it is the append point) until grow appends to
// it, and a concurrent
// neighbour removal can transiently relink a removed segment, which
// traversal skips by id. When every predecessor is gone the list's
// cursors are advanced instead, so a pure abort storm cannot grow an
// unbounded head chain.
func (s *Segment[C]) remove() {
	for {
		next := s.next.Load()
		if next == nil {
			return
		}
		prev := s.prev.Load()
		for prev != nil && prev.removed() {
			prev = prev.prev.Load()
		}
		if prev == nil {
			next.prev.Store(nil)
			for _, h := range s.heads {
				Advance(h, next)
			}
		} else {
			prev.next.Store(next)
			if old := next.prev.Load(); old != nil {
				// Not a link Settle already cut: restoring it would pin
				// the spent segments again.
				next.prev.CompareAndSwap(old, prev)
			}
		}
		if next.removed() && next.next.Load() != nil {
			// next unlinked concurrently; restitch around it too.
			continue
		}
		return
	}
}

// Advance moves a segment cursor forward to `to` if it currently points
// at an older segment. Cursors only ever move to segments that are
// still linked or whose predecessors were all removed, so skipping can
// never pass a live cell.
func Advance[C any](ptr *atomicx.Pointer[Segment[C]], to *Segment[C]) {
	for {
		cur := ptr.Load()
		if cur.id >= to.id || ptr.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Reach counts the segments reachable from s: back through prev, then
// forward through next — a boundedness probe for leak tests, not part
// of any protocol.
func Reach[C any](s *Segment[C]) int {
	n := 0
	for p := s.prev.Load(); p != nil; p = p.prev.Load() {
		n++
	}
	for ; s != nil; s = s.next.Load() {
		n++
	}
	return n
}
