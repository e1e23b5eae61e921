// Package fsm is the fsm analyzer's corpus: a masked wrapper-type state
// word and a raw uint32 word, exercising declared transitions, the
// payload mask, undeclared transitions, uninferrable operands, and
// arithmetic on a phase word.
package fsm

import "sync/atomic"

const (
	idle     uint32 = 0
	armed    uint32 = 1
	firing   uint32 = 2
	phMask   uint32 = 3
	rndShift        = 2
)

type gate struct {
	//nowa:fsm mask=phMask phases=idle,armed,firing transitions=idle>armed,armed>firing,firing>idle
	word atomic.Uint32
}

// cell declares its word through an alias of atomic.Uint32, as the CQS
// cell does through internal/atomicx.
type cell struct {
	//nowa:fsm phases=idle,armed,firing transitions=idle>armed,armed>firing
	state aliasUint32
}

type aliasUint32 = atomic.Uint32

type rawGate struct {
	//nowa:fsm phases=idle,armed,firing transitions=idle>armed,armed>firing,firing>idle
	raw uint32
}

// declared implements only declared transitions, with a round counter in
// the payload bits above the mask: clean.
func (g *gate) declared() {
	next := g.word.Load()&^phMask + 1<<rndShift | armed
	g.word.Store(next)
	g.word.CompareAndSwap(next, next&^phMask|firing)
	g.word.Swap(next &^ phMask) // back to the zero phase, round preserved
}

// undeclared skips a machine state.
func (g *gate) undeclared() {
	g.word.CompareAndSwap(idle, firing) // want: undeclared transition
}

// laundered stores a value the analyzer cannot resolve to a phase.
func (g *gate) laundered(x uint32) {
	g.word.Store(x) // want: cannot infer
}

// arithmetic moves the word outside the declared machine.
func (g *gate) arithmetic() {
	g.word.Add(1) // want: arithmetic on a phase word
}

// rawOps exercises the sync/atomic package-function forms on a raw word.
func (r *rawGate) rawOps() {
	atomic.CompareAndSwapUint32(&r.raw, idle, armed) // declared: clean
	atomic.StoreUint32(&r.raw, idle)                 // zero-phase reset: clean
	atomic.CompareAndSwapUint32(&r.raw, armed, idle) // want: undeclared transition
}

// guarded is the annotated negative: the old word was loaded and
// dynamically range-checked, which the analyzer cannot see.
func (g *gate) guarded() {
	st := g.word.Load()
	if st&phMask != armed {
		return
	}
	g.word.CompareAndSwap(st, st&^phMask|firing) //nowa:fsm-ok corpus negative: the guard above restricts the loaded phase to armed, and armed>firing is declared
}

// reopen moves the alias-typed word back to idle.
func (c *cell) reopen() {
	c.state.CompareAndSwap(armed, idle) // want: undeclared transition
}
