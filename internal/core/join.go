package core

import (
	"math"
	_ "sync/atomic" // for the inline bodies of atomicx's aliases

	"nowa/internal/atomicx"
)

// IMax is the initial value of the wait-free sync-condition counter: the
// maximal value of its datatype (§IV-B). A spurious zero would require more
// than 2^63−1 concurrently outstanding strands.
const IMax = math.MaxInt64

// Join coordinates the strands of one spawning-function instance. A Join
// value belongs to exactly one scope between Rearm calls; the runtime
// layer owns the suspension/resumption of the parent strand and consults
// the Join for the sync condition.
//
// Call protocol (all callers are the scheduler):
//
//   - OnSteal: by the thief that successfully claimed this scope's pending
//     continuation, before resuming it. Serialised per scope by the deque
//     (at most one thief wins a given continuation, and the main path is
//     suspended while its continuation is pending).
//   - OnChildJoin: by a strand that returned from a spawned child and found
//     its continuation stolen (implicit sync). A true result transfers
//     responsibility for resuming the parent suspended at the explicit
//     sync point to the caller.
//   - SyncBegin: by the main path at the explicit sync point, after it has
//     published the parent's suspension handle. A true result means the
//     sync condition already holds and the parent proceeds without
//     suspending; exactly one of SyncBegin/OnChildJoin returns true per
//     sync round.
//   - Rearm: by the parent after the sync point completes, so the scope can
//     host another spawn/sync round (a function may sync repeatedly).
//
// Lazy vessel promotion (DESIGN.md §14) never engages a Join: a spawn
// that commits to running its child inline publishes only a promotable
// record, so neither OnSteal nor OnChildJoin fires for that child — the
// inline run is serially elided below the join protocol. Promotion
// happens strictly *before* any Join call for the affected child (the
// owner materialises the eager handoff and only then publishes a real
// continuation), so the invariants above see every promoted child as an
// ordinary eager spawn and the α/ω algebra is untouched.
type Join interface {
	OnSteal()
	OnChildJoin() bool
	SyncBegin() bool
	Rearm()
	// Forked reports α, the number of continuations stolen in the current
	// round. Only valid on the main path (no concurrent steals).
	Forked() int64
}

// WaitFreeJoin is the Nowa protocol: every operation is one atomic
// fetch-and-add (or a plain increment on the serialised main path), so
// every caller completes in a bounded number of its own steps regardless
// of the progress of other strands — wait-freedom in Herlihy's sense.
//
// The zero value is NOT ready; call Rearm (or NewWaitFreeJoin) first.
//
// The fields are //nowa:join-state: the Eq. 5 invariants hold only while
// every mutation goes through OnSteal/OnChildJoin/SyncBegin/Rearm, so
// direct field access outside internal/core and internal/sched is
// rejected by nowa-vet.
//
//nowa:join-state
type WaitFreeJoin struct {
	// alpha is α: the number of actually forked (stolen) continuations.
	// Invariant II makes a plain field sufficient: only the main-path
	// control flow mutates it, and main-path handoffs synchronise through
	// the deque and the resume channel.
	alpha int64
	// counter holds N_r' = I_max − ω during phase 1 and N_r = α − ω after
	// the explicit sync point restores it.
	counter atomicx.Int64
}

// NewWaitFreeJoin returns an armed wait-free join.
func NewWaitFreeJoin() *WaitFreeJoin {
	j := &WaitFreeJoin{}
	j.counter.Store(IMax)
	return j
}

// OnSteal records a fork: the calling thief has become the main path.
func (j *WaitFreeJoin) OnSteal() { j.alpha++ }

// OnChildJoin atomically decrements the sync-condition counter (ω++ seen
// through the proxy). It reports true iff the counter reached zero, which
// can only happen after SyncBegin restored N_r (Invariant I).
func (j *WaitFreeJoin) OnChildJoin() bool { return j.counter.Add(-1) == 0 }

// SyncBegin restores N_r = N_r' − (I_max − α) with one atomic subtraction
// (Eq. 5) and reports whether the sync condition already holds.
func (j *WaitFreeJoin) SyncBegin() bool {
	return j.counter.Add(-(IMax - j.alpha)) == 0
}

// Rearm resets the scope for the next spawn/sync round. Safe only when the
// scope is quiescent (Invariant III guarantees it after a completed sync).
func (j *WaitFreeJoin) Rearm() {
	j.alpha = 0
	j.counter.Store(IMax)
}

// Forked reports α for the current round.
func (j *WaitFreeJoin) Forked() int64 { return j.alpha }

// Outstanding reports α − ω, the stolen continuations whose child has not
// joined yet. Main path only, during phase 1 (before SyncBegin restores
// the counter); concurrent joins can only lower the true value, so the
// result is an upper bound.
func (j *WaitFreeJoin) Outstanding() int64 { return j.alpha - (IMax - j.counter.Load()) }

// Quiescent reports whether no strand will touch this join again: every
// stolen continuation's child has joined (counter == I_max − ω with
// ω == α during phase 1, or I_max after a completed sync round rearmed
// it with α == 0). The scheduler uses this to decide whether a scope
// slot whose owning strand ended without a completed sync — a panic
// unwound past it — may be recycled. Callers must guarantee no
// concurrent OnSteal (true once the owning strand has ended, since its
// continuation slot has been consumed); concurrent OnChildJoin calls
// only move the counter toward the quiescent value, so a true result is
// stable.
func (j *WaitFreeJoin) Quiescent() bool { return j.counter.Load() == IMax-j.alpha }
