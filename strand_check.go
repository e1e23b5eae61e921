//go:build nowacheck

package nowa

import (
	"context"

	"nowa/internal/atomicx"
)

// proc stands in for sched.Proc in an interleaving check: a strand is one
// controller thread, and its wait parks on a lock held from PrepareWait
// until the wake, so the controller sees a parked strand as a thread
// waiting for a lock and a strand nobody wakes as a deadlock; a wake is
// delivered in one step. No chaos is planted and no context can cancel a
// wait.
type proc struct{}

// waiter stands in for sched.Waiter.
type waiter struct {
	parked atomicx.Mutex
	woken  bool // a waiter cell is resumed once: a second wake panics
}

func (p *proc) PrepareWait() *waiter {
	w := new(waiter)
	w.parked.Lock()
	return w
}

func (p *proc) CommitWait(w *waiter) (aborted bool) { w.parked.Lock(); return false }
func (p *proc) WakeNext(w *waiter)                  { w.Wake() }
func (p *proc) WaitContext() context.Context        { return nil }
func (p *proc) ChaosAbortWait() bool                { return false }
func (p *proc) ChaosWakeDelay()                     {}

func (w *waiter) Wake() {
	if w.woken {
		panic("nowa: a wait woken twice")
	}
	w.woken = true
	w.parked.Unlock()
}

func (w *waiter) WakeAborted() { w.Wake() }

// The rest of Ctx: a checked strand only sends, receives and awaits.
func (p *proc) Scope() Scope          { panic("nowa: a checked strand does not spawn") }
func (p *proc) Workers() int          { return 1 }
func (p *proc) Done() <-chan struct{} { return nil }
func (p *proc) Err() error            { return nil }
