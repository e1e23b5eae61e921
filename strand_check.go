//go:build nowacheck

package nowa

import (
	"context"
	"time"

	"nowa/internal/atomicx"
)

// proc stands in for sched.Proc in an interleaving check: a strand is one
// controller thread, and its wait parks on a lock held from PrepareWait
// until the wake, so the controller sees a parked strand as a thread
// waiting for a lock and a strand nobody wakes as a deadlock; a wake is
// delivered in one step. No chaos is planted. A strand given an abort
// (ctx) waits under it: another controller thread's Abort races the
// waker for the strand's cell, as a cancelled context does through
// parkWait's afterFunc.
type proc struct{ ctx *abort }

// waiter stands in for sched.Waiter.
type waiter struct {
	parked  atomicx.Mutex
	woken   bool // a waiter cell is resumed once: a second wake panics
	aborted bool
}

// PrepareWait holds the fresh waiter's lock with no scheduling point:
// no other thread can see the waiter yet.
func (p *proc) PrepareWait() *waiter {
	w := new(waiter)
	w.parked.Hold()
	return w
}

func (p *proc) CommitWait(w *waiter) (aborted bool) { w.parked.Lock(); return w.aborted }
func (p *proc) WakeNext(w *waiter)                  { w.Wake() }
func (p *proc) ChaosAbortWait() bool                { return false }
func (p *proc) ChaosWakeDelay()                     {}

func (p *proc) WaitContext() context.Context {
	if p.ctx == nil {
		return nil
	}
	return p.ctx
}

func (w *waiter) Wake() {
	if w.woken {
		panic("nowa: a wait woken twice")
	}
	w.woken = true
	w.parked.Unlock()
}

func (w *waiter) WakeAborted() { w.aborted = true; w.Wake() }

// abort is a context a controller thread cancels with Abort. Its lock
// orders the cancel against arming and disarming a wait's abort arm.
type abort struct {
	mu        atomicx.Mutex
	cancelled bool
	arm       func()
}

// Abort cancels: the arm of a wait in flight runs on the calling thread,
// and every later wait aborts as soon as it is armed.
func (a *abort) Abort() {
	a.mu.Lock()
	a.cancelled = true
	f := a.arm
	a.arm = nil
	a.mu.Unlock()
	if f != nil {
		f()
	}
}

func afterFunc(ctx context.Context, f func()) (stop func() bool) {
	a := ctx.(*abort)
	a.mu.Lock()
	if a.cancelled {
		a.mu.Unlock()
		f()
		return func() bool { return false }
	}
	a.arm = f
	a.mu.Unlock()
	return func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		armed := a.arm != nil
		a.arm = nil
		return armed
	}
}

func (a *abort) Deadline() (time.Time, bool) { return time.Time{}, false }
func (a *abort) Done() <-chan struct{}       { return nil }
func (a *abort) Value(any) any               { return nil }

// Err is read by the aborted strand after its wake, which the cancel
// happened before.
func (a *abort) Err() error {
	if a.cancelled {
		return context.Canceled
	}
	return nil
}

// The rest of Ctx: a checked strand only sends, receives and awaits.
func (p *proc) Scope() Scope          { panic("nowa: a checked strand does not spawn") }
func (p *proc) Workers() int          { return 1 }
func (p *proc) Done() <-chan struct{} { return nil }
func (p *proc) Err() error            { return nil }
