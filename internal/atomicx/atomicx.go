//go:build !nowacheck

// Package atomicx is the one door of the deques, CQS, the ring, the
// channel, the join counters and the wake queue to sync/atomic,
// sync.Mutex and runtime.Gosched. In a normal build its names are the
// standard types (Pointer is a one-field wrapper only because go 1.22 has
// no generic alias) and Gosched is runtime.Gosched, so they cost nothing,
// provided the package using them imports sync/atomic (and, for Mutex,
// sync) too: the compiler reads the inline bodies of the aliased methods
// only from a direct import. Built with -tags nowacheck, every operation
// first yields to an interleaving controller (check.go) that runs the
// real code one goroutine at a time under every schedule up to a
// preemption bound.
//
// The controller's blind spot: a plain read or write is no scheduling
// point, so one ordered after an atomic publish runs in the same step as
// the code around it. The check cannot see it reordered or raced;
// WaitFreeJoin.alpha (Invariant II) is such a word, and the runtime's
// -race runs cover it instead.
package atomicx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

type (
	Bool   = atomic.Bool
	Int64  = atomic.Int64
	Uint32 = atomic.Uint32
	Uint64 = atomic.Uint64
	Mutex  = sync.Mutex
)

// Pointer is atomic.Pointer[T].
type Pointer[T any] struct{ p atomic.Pointer[T] }

func (x *Pointer[T]) Load() *T                        { return x.p.Load() }
func (x *Pointer[T]) Store(v *T)                      { x.p.Store(v) }
func (x *Pointer[T]) CompareAndSwap(old, new *T) bool { return x.p.CompareAndSwap(old, new) }

// Gosched is runtime.Gosched: the yield of a loop that waits for another
// goroutine to act.
func Gosched() { runtime.Gosched() }
