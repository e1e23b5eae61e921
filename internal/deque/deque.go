// Package deque provides work-stealing deques: double-ended queues with
// asymmetric ends as described in §II-A of the Nowa paper.
//
// The bottom end is owned by exactly one worker, which pushes and pops in
// LIFO order. Thieves remove items from the top end. Implementations must
// be safe for one concurrent bottom-end user plus any number of concurrent
// PopTop callers. Concurrent PushBottom/PopBottom calls are NOT supported;
// that exclusivity is the property work-stealing queue algorithms exploit.
//
// Four algorithms are provided:
//
//   - CL: the dynamic circular deque of Chase and Lev (SPAA'05), fully
//     lock-free, ring-buffered, growable. This is the queue Nowa pairs
//     with its wait-free join protocol (§IV-C).
//   - THE: the Tail/Head/Exception protocol of Cilk-5 (PLDI'98). The owner
//     elides the lock when top and bottom are non-conflicting; thieves
//     always lock. Used by the Fibril baseline.
//   - ABP: the non-blocking deque of Arora, Blumofe and Plaxton (SPAA'98),
//     with the reduced-effective-capacity drawback discussed in §II-D.
//   - Locked: a mutex around a slice; the strawman fully-synchronised queue.
//
// The deques are oblivious to what they carry and to lazy vessel
// promotion (DESIGN.md §14): a lazy spawn publishes nothing, so a deque
// only ever holds continuations that are work. A thief that finds one
// empty posts steal demand on the owner's token, a word beside the deque,
// and the owner answers by publishing its next continuation; no deque
// algorithm needed changes for this.
//
// CL and THE declare their shared words through internal/atomicx, so
// `go test -tags nowacheck ./internal/deque/...` runs this very code
// under every schedule of an owner and a few thieves up to a preemption
// bound (check_test.go).
package deque

import "fmt"

// StealOutcome classifies a PopTop attempt. The boolean PopTop collapses
// "victim empty" and "lost a race" into one failure; schedule recording
// wants them apart — an empty victim is a bad draw, a lost race is real
// contention — so PopTopOutcome reports which it was.
type StealOutcome uint8

const (
	// StealHit: an item was stolen.
	StealHit StealOutcome = iota
	// StealEmpty: the victim's deque was (observed) empty.
	StealEmpty
	// StealLost: an item was there but the attempt lost a race (CAS
	// failure or owner conflict) and should be retried elsewhere.
	StealLost
)

// String names the outcome.
func (o StealOutcome) String() string {
	switch o {
	case StealHit:
		return "hit"
	case StealEmpty:
		return "empty"
	case StealLost:
		return "lost"
	}
	return fmt.Sprintf("StealOutcome(%d)", int(o))
}

// Deque is a work-stealing deque of *T items. Items must be non-nil.
type Deque[T any] interface {
	// PushBottom appends an item at the bottom end. Owner-only.
	PushBottom(x *T)
	// PopBottom removes the most recently pushed item. Owner-only.
	// It reports false when the deque is empty.
	PopBottom() (*T, bool)
	// PopTop steals the oldest item. Safe for concurrent use by any number
	// of thieves (and concurrently with the owner's bottom operations).
	// It reports false when the deque is empty or when the attempt lost a
	// race and should be retried elsewhere.
	PopTop() (*T, bool)
	// PopTopOutcome is PopTop distinguishing the failure modes: the item
	// is non-nil exactly when the outcome is StealHit.
	PopTopOutcome() (*T, StealOutcome)
	// Size reports the number of items currently in the deque. It is a
	// best-effort snapshot, only exact when quiescent.
	Size() int
}

// Algorithm selects a deque implementation.
type Algorithm int

const (
	// CL is the Chase–Lev lock-free circular deque.
	CL Algorithm = iota
	// THE is the Cilk-5 Tail/Head/Exception partially locked deque.
	THE
	// ABP is the Arora–Blumofe–Plaxton non-blocking bounded deque.
	ABP
	// Locked is a fully mutex-protected deque.
	Locked
)

// String returns the conventional name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case CL:
		return "CL"
	case THE:
		return "THE"
	case ABP:
		return "ABP"
	case Locked:
		return "Locked"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// New returns a fresh deque using the given algorithm. capHint sizes the
// initial backing store; implementations grow as needed (the ABP deque is
// bounded by design and panics on overflow, matching the original
// algorithm's fixed array).
func New[T any](alg Algorithm, capHint int) Deque[T] {
	if capHint < 8 {
		capHint = 8
	}
	switch alg {
	case CL:
		return NewCL[T](capHint)
	case THE:
		return NewTHE[T](capHint)
	case ABP:
		return NewABP[T](capHint)
	case Locked:
		return NewLocked[T](capHint)
	}
	panic("deque: unknown algorithm " + alg.String())
}

// roundUpPow2 returns the smallest power of two >= n (n > 0).
func roundUpPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
