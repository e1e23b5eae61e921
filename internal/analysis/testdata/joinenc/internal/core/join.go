// Package core declares the corpus join-protocol state; the owning
// packages (internal/core, internal/sched) may touch its fields, anyone
// else must go through the methods.
package core

import "sync/atomic"

// Join is the corpus join-protocol state, its counter declared through
// an alias as core.WaitFreeJoin's is through internal/atomicx.
//
//nowa:join-state
type Join struct {
	Counter aliasInt64
	Alpha   int64
}

// OnChildJoin is the sanctioned protocol surface.
func (j *Join) OnChildJoin() bool {
	return j.Counter.Add(-1) == 0
}

type aliasInt64 = atomic.Int64
