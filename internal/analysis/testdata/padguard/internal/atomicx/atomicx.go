// Package atomicx mirrors the repository's internal/atomicx as a normal
// build sees it: Bool, Int64, Uint32, Uint64 and Mutex aliases, Pointer a
// one-field wrapper.
package atomicx

import (
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

type Pointer[T any] struct{ p atomic.Pointer[T] }
