// Package ring is the bounded MPMC ticketed ring under nowa.Channel and
// the serving runtime's admission queue (DESIGN.md §16.6, §13). It holds
// items only: who sleeps beside a full or empty ring is the caller's
// protocol.
package ring

import (
	_ "sync/atomic" // for the inline bodies of atomicx's aliases
	"unsafe"

	"nowa/internal/atomicx"
)

// Ring is Vyukov's bounded queue with the seq encoding doubled: ticket t
// owns cell t%cap, whose seq reads 2t when free for put t, 2t+1 when it
// holds item t, and 2(t+cap) once get t emptied it, so that "holds t" and
// "free for t+1" differ at capacity 1. A cell stores its seq less twice
// its index, 2l, 2l+1 and 2(l+cap) for the lap l = t - t%cap, so that a
// fresh cell, free for the put of its index, reads 0. An operation CASes
// its own side's ticket and stores one seq. Items leave in ticket order,
// but cells are published out of it: put t+1 may land while put t is
// still writing.
type Ring[T any] struct {
	cells []cell[T] // written at Init only
	_     [128]byte
	tail  atomicx.Uint64 // next put ticket; producers only
	_     [120]byte
	head  atomicx.Uint64 // next get ticket; consumers only
	_     [120]byte
}

//nowa:nopad ring cells are packed on purpose: a line per cell would cost 128 B per buffered item, and a cell is written by one producer and one consumer per lap, not spun on
type cell[T any] struct {
	seq atomicx.Uint64
	v   T
}

// Tickets and the read-only slice a cache-line pair apart, whatever T is.
var guard Ring[struct{}]

const (
	_ uintptr = unsafe.Offsetof(guard.tail) - unsafe.Offsetof(guard.cells) - 128
	_ uintptr = unsafe.Offsetof(guard.head) - unsafe.Offsetof(guard.tail) - 128
	_ uintptr = unsafe.Sizeof(guard) - unsafe.Offsetof(guard.head) - 128

	// What claim wants of a cell's seq, as an offset from twice the lap.
	free, full uint64 = 0, 1
)

// Init sizes an unused ring to capacity >= 1 cells.
func (r *Ring[T]) Init(capacity int) { r.cells = make([]cell[T], capacity) }

// Cap returns the number of cells.
func (r *Ring[T]) Cap() int { return len(r.cells) }

// Len returns the number of items, claimed but unpublished puts included.
func (r *Ring[T]) Len() int {
	return max(0, min(int(r.tail.Load()-r.head.Load()), len(r.cells)))
}

// Settled reports every put ticket taken matched by a get ticket: nothing
// buffered and no put between its Claim and its Publish.
func (r *Ring[T]) Settled() bool { return r.tail.Load() == r.head.Load() }

// Slot is a claimed put ticket, by the seq its cell read: the cell is the
// claimer's until Publish.
type Slot[T any] struct {
	seq uint64
	c   *cell[T]
}

// Claim takes the next put ticket once its cell is free. It fails, taking
// nothing, while the ring is full or the get that last held the cell has
// yet to empty it.
//
//nowa:hotpath
func (r *Ring[T]) Claim() (Slot[T], bool) {
	seq, c := r.claim(&r.tail, free, true)
	return Slot[T]{seq, c}, c != nil
}

// Publish stores v in the claimed cell and hands it to get t.
//
//nowa:hotpath
func (s Slot[T]) Publish(v T) {
	s.c.v = v
	s.c.seq.Store(s.seq - free + full)
}

// Get removes the oldest item; false while the head cell holds none: the
// ring is empty, or the put that owns the cell has yet to publish.
//
//nowa:hotpath
func (r *Ring[T]) Get() (v T, ok bool) {
	seq, c := r.claim(&r.head, full, true)
	if c == nil {
		return v, false
	}
	var zero T
	v, c.v = c.v, zero
	c.seq.Store(seq - full + 2*uint64(len(r.cells)))
	return v, true
}

// CanPut and CanGet report, taking no ticket, whether Claim (Get) would
// succeed now: a sleeper's re-check.
//
//nowa:hotpath
func (r *Ring[T]) CanPut() bool { _, c := r.claim(&r.tail, free, false); return c != nil }

//nowa:hotpath
func (r *Ring[T]) CanGet() bool { _, c := r.claim(&r.head, full, false); return c != nil }

// claim returns the cell of the ticket in word (tail or head) and the seq
// it read once that says free (full), taking the ticket if take is set,
// and a nil cell when it does not yet. A seq behind the wanted one is
// exact, not stale: the ticket cannot have been taken while its cell never
// read so. A seq ahead, or a lost CAS, means another operation of this
// side won.
//
//nowa:hotpath
func (r *Ring[T]) claim(word *atomicx.Uint64, want uint64, take bool) (uint64, *cell[T]) {
	for {
		t := word.Load()
		i := t % uint64(len(r.cells))
		c, w := &r.cells[i], 2*(t-i)+want
		if seq := c.seq.Load(); seq < w {
			return 0, nil
		} else if seq == w && (!take || word.CompareAndSwap(t, t+1)) {
			return w, c
		}
	}
}
