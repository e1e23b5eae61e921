package core

import (
	_ "sync" // for the inline bodies of atomicx's aliases

	"nowa/internal/atomicx"
	"nowa/internal/deque"
)

// LockedJoin is the Fibril-style lock-based baseline (§III-C, Listing 2).
// A mutex guards the count of outstanding stolen children and the syncing
// flag. A steal couples this lock with the victim deque's lock
// (StealCoupled) — the overlapping acquisition that Listing 2 shows — so
// that a joiner that observed an empty deque cannot decrement before the
// thief's increment lands.
//
// Every operation acquires the mutex, so under contention callers queue:
// the protocol is blocking, which is precisely the scalability limit the
// paper measures against.
//
//nowa:join-state
type LockedJoin struct {
	//nowa:lock level=5 name=frame
	mu      atomicx.Mutex
	count   int64 // N_r: outstanding stolen children
	syncing bool  // parent suspended at the explicit sync point
	forked  int64 // total steals this round, for symmetry with Forked()
}

// NewLockedJoin returns an armed locked join.
func NewLockedJoin() *LockedJoin { return &LockedJoin{} }

// OnSteal records a fork under the frame lock.
func (j *LockedJoin) OnSteal() {
	j.mu.Lock()
	j.count++
	j.forked++
	j.mu.Unlock()
}

// StealCoupled is Fibril's steal (Listing 2): d's lock is held across the
// pop and overlaps the lock of the stolen frame (frame's result for the
// popped item), under which the fork is counted. A joiner that then finds
// d empty is ordered after the increment: the §III-C race is excluded by
// blocking, not transformed.
func StealCoupled[T any](d *deque.THEDeque[T], frame func(*T) *LockedJoin) (*T, deque.StealOutcome) {
	d.Lock()
	c, o := d.PopTopLockedOutcome()
	if o != deque.StealHit {
		d.Unlock()
		return nil, o
	}
	j := frame(c)
	j.mu.Lock()
	d.Unlock()
	j.count++
	j.forked++
	j.mu.Unlock()
	return c, deque.StealHit
}

// OnChildJoin decrements the count and reports whether the caller must
// resume the parent suspended at the explicit sync point.
func (j *LockedJoin) OnChildJoin() bool {
	j.mu.Lock()
	j.count--
	if j.count < 0 {
		// Reachable only when the scheduler failed to couple the deque
		// lock with this lock (the very race Listing 2 closes).
		j.mu.Unlock()
		panic("core: LockedJoin count went negative — deque/frame lock coupling violated")
	}
	ready := j.syncing && j.count == 0
	j.mu.Unlock()
	return ready
}

// SyncBegin reports whether the sync condition already holds; otherwise it
// marks the parent as suspended so the last joiner resumes it.
func (j *LockedJoin) SyncBegin() bool {
	j.mu.Lock()
	if j.count == 0 {
		j.mu.Unlock()
		return true
	}
	j.syncing = true
	j.mu.Unlock()
	return false
}

// Rearm resets the scope for the next spawn/sync round.
func (j *LockedJoin) Rearm() {
	j.mu.Lock()
	j.count = 0
	j.syncing = false
	j.forked = 0
	j.mu.Unlock()
}

// Quiescent reports whether no strand will touch this join again: all
// stolen children have joined and no parent is suspended on it. Used by
// the scheduler's scope-slot recycling, mirroring WaitFreeJoin.Quiescent.
func (j *LockedJoin) Quiescent() bool {
	j.mu.Lock()
	q := j.count == 0 && !j.syncing
	j.mu.Unlock()
	return q
}

// Outstanding reports N_r, the stolen children that have not joined yet.
func (j *LockedJoin) Outstanding() int64 {
	j.mu.Lock()
	n := j.count
	j.mu.Unlock()
	return n
}

// Forked reports the number of steals this round.
func (j *LockedJoin) Forked() int64 {
	j.mu.Lock()
	f := j.forked
	j.mu.Unlock()
	return f
}
