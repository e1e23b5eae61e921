// Package atomicx mirrors the repository's internal/atomicx as a normal
// build sees it: Int64 an alias, Pointer a one-field wrapper.
package atomicx

import "sync/atomic"

type Int64 = atomic.Int64

type Pointer[T any] struct{ p atomic.Pointer[T] }
