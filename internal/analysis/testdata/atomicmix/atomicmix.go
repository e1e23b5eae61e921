// Package atomicmix is the nowa-vet corpus for the atomicmix analyzer:
// gate.state is atomically swapped in publish, so the plain read in
// badPeek and the plain reset in badReset must both be flagged (there
// is no suppression), and the never-atomic field must stay out of scope.
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
