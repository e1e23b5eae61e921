package nowa

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nowa/internal/cqs"
)

// Future resolution states. A future starts pending; the first resolver
// claims it (claimed is the publication window for the value and error
// fields) and finishes it as resolved — a poisoned future is one resolved
// with an error wrapping ErrPoisoned. The terminal state never changes,
// which is what lets Await's recheck trust a single load.
const (
	futPending uint32 = iota
	futClaimed
	futResolved
)

// futCore is the non-generic heart of Future[T]: the resolution state
// word, the waiter queue, and the error slot. Split out of the generic
// struct so the fsm analyzer checks the state word's transitions once,
// independent of instantiation.
//
//nowa:nopad futures are individually heap-allocated and the state word is written twice in a lifetime
type futCore struct {
	//nowa:fsm phases=futPending,futClaimed,futResolved transitions=futPending>futClaimed,futClaimed>futResolved
	state atomic.Uint32
	q     *cqs.Queue
	err   error
}

// claim wins the right to resolve: exactly one resolver ever passes.
func (f *futCore) claim() bool {
	return f.state.CompareAndSwap(futPending, futClaimed)
}

// resolve moves claimed to resolved and releases every registered
// waiter. The CAS cannot fail — claim gave this resolver exclusive
// ownership of the window — but stating it as a CAS keeps the transition
// statically checkable.
func (f *futCore) resolve() {
	f.state.CompareAndSwap(futClaimed, futResolved)
	f.q.Drain(wakeHandle)
}

// Future is a write-once cell strands can await without blocking their
// worker: Await parks the strand through the scheduler's external-wait
// protocol, and resolution (or poisoning, or the awaiting context's
// cancellation) releases it. Create with NewFuture; a Future must not be
// copied after first use.
type Future[T any] struct {
	core futCore
	val  T
}

// NewFuture returns an unresolved future.
func NewFuture[T any]() *Future[T] {
	return &Future[T]{core: futCore{q: cqs.NewQueue()}}
}

// Complete resolves the future with v, waking every awaiter. It returns
// false (and changes nothing) when the future was already resolved,
// failed or poisoned — resolution is first-writer-wins.
func (f *Future[T]) Complete(v T) bool {
	if !f.core.claim() {
		return false
	}
	f.val = v
	f.core.resolve()
	return true
}

// Fail resolves the future with err instead of a value. First-writer-
// wins like Complete.
func (f *Future[T]) Fail(err error) bool {
	if !f.core.claim() {
		return false
	}
	f.core.err = err
	f.core.resolve()
	return true
}

// Poison resolves the future with an error wrapping ErrPoisoned and the
// given cause — the panic path: a producer that cannot deliver releases
// its awaiters instead of stranding them. First-writer-wins.
func (f *Future[T]) Poison(cause any) bool {
	return f.Fail(errors.Join(ErrPoisoned, fmt.Errorf("%v", cause)))
}

// Resolve completes the future from fn, poisoning it when fn panics.
// The panic is re-raised after the waiters are released, so the
// scheduler's panic handling still sees it while no Await hangs on it.
func (f *Future[T]) Resolve(fn func() (T, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.Poison(r)
			panic(r)
		}
	}()
	v, err := fn()
	if err != nil {
		f.Fail(err)
		return
	}
	f.Complete(v)
}

// TryGet returns the resolution without blocking; ok is false while the
// future is unresolved.
func (f *Future[T]) TryGet() (v T, err error, ok bool) {
	if f.core.state.Load() == futResolved {
		return f.val, f.core.err, true
	}
	return v, nil, false
}

// Done reports whether the future has resolved (including poisoned).
func (f *Future[T]) Done() bool {
	return f.core.state.Load() == futResolved
}

// Await blocks the calling strand until the future resolves, the strand's
// context is cancelled, or its deadline passes. The worker token is
// released for the duration (another strand runs on it) and restored on
// wakeup. A cancelled Await unregisters its waiter cell and returns the
// context's error; a poisoned future returns an error wrapping
// ErrPoisoned.
func (f *Future[T]) Await(c Ctx) (T, error) {
	p := procOf(c)
	for {
		if v, err, ok := f.TryGet(); ok {
			return v, err
		}
		// The re-check covers a ticket taken after the resolver's drain
		// snapshotted its bound; terminal states never change.
		if err := blockOn(p, f.core.q, f.Done); err != nil {
			var zero T
			return zero, err
		}
	}
}
