//go:build !nowacheck

// Package atomicx is the deques' one door to sync/atomic and sync.Mutex.
// In a normal build its names are the standard types (Pointer is a
// one-field wrapper only because go 1.22 has no generic alias), so they
// cost nothing. Built with -tags nowacheck, every operation first yields
// to an interleaving controller (check.go) that runs the real code one
// goroutine at a time under every schedule up to a preemption bound.
package atomicx

import (
	"sync"
	"sync/atomic"
)

type (
	Int64 = atomic.Int64
	Mutex = sync.Mutex
)

// Pointer is atomic.Pointer[T].
type Pointer[T any] struct{ p atomic.Pointer[T] }

func (x *Pointer[T]) Load() *T   { return x.p.Load() }
func (x *Pointer[T]) Store(v *T) { x.p.Store(v) }
