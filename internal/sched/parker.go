package sched

import (
	"runtime"
	"sync/atomic"
)

// parker is the one-word rendezvous that replaces the per-vessel
// park/start channels on the scheduler's fast path. It carries a single
// event from exactly one deliverer to the parker's owner goroutine: the
// deliverer writes its payload into plain vessel fields, then calls
// deliver; the owner returns from await and reads the payload. The
// atomic state transition orders the payload writes before the reads
// (Go's sync/atomic operations are sequentially consistent), so no
// further synchronisation is needed.
//
// The state machine has three states:
//
//	idle     — no event pending, owner not committed to blocking
//	waiting  — the owner gave up spinning and will block on wake
//	ready    — an event was delivered and not yet consumed
//
// deliver is a single atomic swap to ready; only when it displaces
// waiting does it touch the buffered wake channel. await takes its spin
// budget from the caller, because the two kinds of wait the scheduler has
// want opposite things from it:
//
//   - The spawn/sync ladder (dispatch a child to a just-freed vessel,
//     resume a parent whose child just returned) passes parkerSpins: the
//     counterpart is already running and about to deliver, so a few
//     yields to the Go scheduler make the whole rendezvous one
//     uncontended CAS with no channel operation and no goroutine wakeup.
//   - An external wait (CommitWait) passes 0 and blocks on the wake
//     channel at once. Such a wait has no bounded duration and its strand
//     holds no worker token, so every yield is a trip through Go's global
//     run queue taken in competition with the token holders the strand is
//     waiting on: with the spin on, runtime.goschedImpl was half of the
//     pipeline kernel's CPU samples (DESIGN.md §16.2).
//
// Safety of resume-before-park: a thief may steal a continuation and
// deliver the resume before the spawning strand has reached its park
// (the window the old buffered channel covered). deliver in that window
// swaps idle→ready; the late await consumes the event on its first spin
// iteration, or — with no spin budget — when its idle→waiting CAS fails.
// The wake channel has capacity 1 for the same reason on the
// blocking path: a deliver that displaces waiting finds the owner either
// blocked on wake or committed to blocking, and the buffered send can
// never be lost or block the deliverer.
//
// At most one event is ever in flight per parker: vessels alternate
// strictly between awaiting a dispatch (owned by the strand that popped
// the vessel from a free list) and awaiting a resume (owned by whoever
// holds the vessel's published continuation or join), and each await
// consumes the event before the next deliverer can exist.
// state is a raw word manipulated with the sync/atomic functions rather
// than an atomic.Uint32 so the consume-side reset can be a plain store:
// once the owner observes ready, the delivering side is finished with
// the parker, and the next deliverer only comes into existence through
// actions the owner takes after consuming (freeing the vessel, pushing a
// continuation), all of which involve sequentially consistent atomics
// that order the reset before the next swap. A plain store is a MOV
// where atomic.Store is a full-fence XCHG — on the spawn ladder that is
// two fences per round trip saved.
//
//nowa:nopad parkers live inside individually heap-allocated vessels; there are no adjacent parker instances to false-share with
type parker struct {
	//nowa:fsm phases=parkerIdle,parkerWaiting,parkerReady transitions=parkerIdle>parkerWaiting,parkerIdle>parkerReady,parkerWaiting>parkerReady,parkerReady>parkerIdle
	state uint32
	wake  chan struct{}
}

const (
	parkerIdle uint32 = iota
	parkerWaiting
	parkerReady
)

// parkerSpins is the spawn/sync ladder's await spin budget. Each failed
// iteration yields the processor, so spinning never starves the
// deliverer; past the bound the owner blocks on the wake channel. The
// bound trades a few microseconds of yielding against the full cost of a
// channel sleep and wakeup, which pays only while the deliverer is
// already on its way — the ladder's premise, and the reason external
// waits pass 0 instead (see the type comment).
const parkerSpins = 96

func (p *parker) init() {
	p.wake = make(chan struct{}, 1)
}

// deliver publishes the event. The caller must have written the payload
// fields it shares with the owner before calling.
//
//nowa:hotpath
func (p *parker) deliver() {
	if atomic.SwapUint32(&p.state, parkerReady) == parkerWaiting {
		p.wake <- struct{}{} //nowa:hotpath-ok blocked-owner wakeup: fires only when the owner exhausted its spin budget, never on the steady-state ladder
	}
}

// await returns once an event has been delivered, consuming it, after
// at most spins yielding polls of the state word (parkerSpins on the
// ladder, 0 for an external wait).
//
//nowa:hotpath
func (p *parker) await(spins int) {
	for i := 0; i < spins; i++ {
		if atomic.LoadUint32(&p.state) == parkerReady {
			p.state = parkerIdle //nowa:plain-ok consume-side reset: the deliverer is done with the word, and the next deliverer is ordered behind seq-cst atomics the owner performs after consuming (see type comment)
			return
		}
		runtime.Gosched()
	}
	if atomic.CompareAndSwapUint32(&p.state, parkerIdle, parkerWaiting) {
		<-p.wake //nowa:hotpath-ok blocking fallback after the spin budget; the buffered channel is the documented slow-path rendezvous
	}
	// Either the CAS failed because deliver already moved the state to
	// ready, or the wake receive ordered us after a deliver that saw
	// waiting. Both ways the event is in; consume it.
	p.state = parkerIdle //nowa:plain-ok consume-side reset after a delivered event, same argument as the spin-phase reset above
}
