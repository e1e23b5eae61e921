// Package atomicmix is the nowa-vet corpus for the atomicmix analyzer:
// gate.state is atomically swapped in publish, so the plain read in
// badPeek and the plain reset in badReset must both be flagged (there
// is no suppression), and the never-atomic field must stay out of scope.
// join's counter is declared through an alias, as core.WaitFreeJoin's is
// through internal/atomicx: its methods are atomic, and a whole-value
// store or load of it is flagged.
package atomicmix

import "sync/atomic"

type gate struct {
	state uint32
	plain int
}

func (g *gate) publish() {
	atomic.SwapUint32(&g.state, 1)
}

func (g *gate) badPeek() uint32 {
	return g.state // BAD: plain read of an atomically accessed field
}

func (g *gate) badReset() {
	g.state = 0 // BAD: plain store, however well ordered the protocol around it
}

func (g *gate) fine() int {
	g.plain++
	return g.plain
}

//nowa:join-state
type join struct{ counter aliasInt64 }

type aliasInt64 = atomic.Int64

func (j *join) rearm() { j.counter.Store(1 << 62) }

func (j *join) badRearm() {
	j.counter = aliasInt64{} // BAD: plain store of an atomic field
}

func (j *join) badSnapshot() int64 {
	c := j.counter // BAD: plain load of an atomic field
	return c.Load()
}
