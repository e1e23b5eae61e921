// Package lockorder is the lockorder analyzer's corpus: enrolled mutexes
// at levels 1 to 4, one function per violation class, and
// annotated/structured negatives that must stay silent.
package lockorder

import (
	"sync"
	"time"
)

type state struct {
	//nowa:lock level=1 name=outer
	outer sync.Mutex
	//nowa:lock level=2 name=inner
	inner sync.Mutex
	//nowa:lock level=3 name=deq
	deq mutex
	ch  chan int
}

// frame is a join frame, its lock declared like core.LockedJoin's: a
// steal takes it under the deque lock, never the other way round.
type frame struct {
	//nowa:lock level=4 name=frame
	mu mutex
}

// frameFirst takes the deque lock under the frame lock.
func (s *state) frameFirst(f *frame) {
	f.mu.Lock()
	s.deq.Lock() // want: out-of-order acquisition
	s.deq.Unlock()
	f.mu.Unlock()
}

// mutex is the deques' lock as internal/atomicx declares it in a normal
// build: an alias of sync.Mutex.
type mutex = sync.Mutex

// deqBackwards takes outer under the deque lock, against the hierarchy.
func (s *state) deqBackwards() {
	s.deq.Lock()
	s.outer.Lock() // want: out-of-order acquisition
	s.outer.Unlock()
	s.deq.Unlock()
}

// ordered acquires strictly by level: clean.
func (s *state) ordered() {
	s.outer.Lock()
	s.inner.Lock()
	s.inner.Unlock()
	s.outer.Unlock()
}

// backwards acquires against the hierarchy.
func (s *state) backwards() {
	s.inner.Lock()
	s.outer.Lock() // want: out-of-order acquisition
	s.outer.Unlock()
	s.inner.Unlock()
}

// twice re-acquires a lock it already holds.
func (s *state) twice() {
	s.outer.Lock()
	s.outer.Lock() // want: double-lock
	s.outer.Unlock()
	s.outer.Unlock()
}

// lockInner is a callee whose summary acquires inner.
func (s *state) lockInner() {
	s.inner.Lock()
	s.inner.Unlock()
}

// viaCallee re-acquires inner through a callee's summary.
func (s *state) viaCallee() {
	s.inner.Lock()
	defer s.inner.Unlock()
	s.lockInner() // want: double-lock via callee
}

// sendHeld parks on a channel send while holding outer.
func (s *state) sendHeld() {
	s.outer.Lock()
	s.ch <- 1 // want: channel send while holding
	s.outer.Unlock()
}

// sleeper is a callee whose summary blocks.
func sleeper() {
	time.Sleep(time.Millisecond)
}

// blockingCallee blocks through a callee while holding outer.
func (s *state) blockingCallee() {
	s.outer.Lock()
	defer s.outer.Unlock()
	sleeper() // want: blocking call while holding
}

// allowed is the annotated negative: a documented blocking send.
func (s *state) allowed() {
	s.outer.Lock()
	s.ch <- 1 //nowa:lock-ok corpus negative: a buffered control channel documented to never fill
	s.outer.Unlock()
}

// signal uses select-with-default while holding: non-blocking, clean.
func (s *state) signal() {
	s.outer.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.outer.Unlock()
}

// poll's select has a default, so its summary does not block.
func (s *state) poll() int {
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}

// pollHeld calls poll while holding outer: clean.
func (s *state) pollHeld() int {
	s.outer.Lock()
	defer s.outer.Unlock()
	return s.poll()
}

// await's select has no default, so its summary blocks.
func (s *state) await() int {
	select {
	case v := <-s.ch:
		return v
	}
}

// awaitHeld calls await while holding outer.
func (s *state) awaitHeld() int {
	s.outer.Lock()
	defer s.outer.Unlock()
	return s.await() // want: blocking call while holding
}

// earlyRelease unlocks on an early-return branch and again on the
// fall-through: the remove-if-present walk keeps this silent.
func (s *state) earlyRelease(cond bool) {
	s.outer.Lock()
	if cond {
		s.outer.Unlock()
		return
	}
	s.outer.Unlock()
}
