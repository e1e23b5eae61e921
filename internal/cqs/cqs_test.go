package cqs

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCQSResumeFIFO: waiters are woken in registration order.
func TestCQSResumeFIFO(t *testing.T) {
	q := NewQueue()
	const n = 100
	for i := 0; i < n; i++ {
		if _, ok := q.Enqueue(i); !ok {
			t.Fatalf("waiter %d eliminated with no resumer", i)
		}
	}
	for i := 0; i < n; i++ {
		h, oc := q.Resume()
		if oc != Woke {
			t.Fatalf("resume %d: outcome %v, want Woke", i, oc)
		}
		if h.(int) != i {
			t.Fatalf("resume %d woke %d: not FIFO", i, h)
		}
	}
}

// TestCQSDeposit: a resume that runs before the registration leaves a
// deposit, and the late enqueuer is eliminated instead of parking.
func TestCQSDeposit(t *testing.T) {
	q := NewQueue()
	if _, oc := q.Resume(); oc != Deposited {
		t.Fatalf("early resume: outcome %v, want Deposited", oc)
	}
	if _, ok := q.Enqueue("w"); ok {
		t.Fatal("enqueue after deposit registered a waiter; want elimination")
	}
}

// TestCQSAbort: an aborted waiter's ticket is spent, a resume skips it,
// and abort-after-resume loses.
func TestCQSAbort(t *testing.T) {
	q := NewQueue()
	ta, _ := q.Enqueue("a")
	tb, _ := q.Enqueue("b")
	if !ta.TryAbort() {
		t.Fatal("abort of a parked waiter failed")
	}
	if ta.TryAbort() {
		t.Fatal("double abort won twice")
	}
	if _, oc := q.Resume(); oc != Aborted {
		t.Fatalf("resume over aborted cell: outcome %v, want Aborted", oc)
	}
	h, oc := q.Resume()
	if oc != Woke || h.(string) != "b" {
		t.Fatalf("resume: got (%v, %v), want (b, Woke)", h, oc)
	}
	if tb.TryAbort() {
		t.Fatal("abort after resume won; the wakeup would be leaked")
	}
	var zero Ticket
	if zero.TryAbort() {
		t.Fatal("zero ticket abort won")
	}
}

// TestCQSSegmentUnlink: a storm of aborts must not grow the segment
// list — fully aborted segments unlink and the head cursor advances.
func TestCQSSegmentUnlink(t *testing.T) {
	q := NewQueue()
	const n = 10 * segSize
	tickets := make([]Ticket, n)
	for i := range tickets {
		tk, ok := q.Enqueue(i)
		if !ok {
			t.Fatalf("waiter %d eliminated", i)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if !tk.TryAbort() {
			t.Fatalf("abort %d failed", i)
		}
	}
	if got := q.Segments(); got > 2 {
		t.Fatalf("after aborting %d waiters, %d segments reachable; aborted segments leaked", n, got)
	}
	// The queue must still work: the spent tickets resolve as Aborted
	// and a fresh waiter pairs with a fresh resume.
	tk, ok := q.Enqueue("fresh")
	if !ok {
		t.Fatal("fresh enqueue eliminated")
	}
	_ = tk
	for {
		h, oc := q.Resume()
		if oc == Woke {
			if h.(string) != "fresh" {
				t.Fatalf("woke %v, want fresh", h)
			}
			break
		}
		if oc != Aborted {
			t.Fatalf("outcome %v, want Aborted while draining spent tickets", oc)
		}
	}
}

// TestCQSSpentSegmentsCollectable: a queue that lives as long as a
// runtime (the scheduler's idle queue) spends a segment every segSize
// parks. Segments() walks forward from the dequeue cursor and cannot see
// them, but the prev links could still pin every one: walking back from
// the enqueue cursor must end within a segment or two, whatever mix of
// resumes and aborts spent the cells.
func TestCQSSpentSegmentsCollectable(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 50*segSize; i++ {
		tk, _ := q.Enqueue(i)
		if i%3 == 0 || (i/segSize)%7 == 3 { // some cells, and whole segments, abort
			tk.TryAbort()
		}
		q.Resume()
	}
	back := 0
	for s := q.enqSeg.Load().prev.Load(); s != nil; s = s.prev.Load() {
		back++
	}
	if back > 1 || q.Segments() > 2 {
		t.Fatalf("%d segments pinned behind the enqueue cursor, %d ahead of the dequeue cursor", back, q.Segments())
	}
}

// TestCQSStalledResumerFindsWaiter replays the stalled-resumer race
// deterministically: a resumer claims its ticket and then stalls while
// resumers >= segSize ahead advance the dequeue cursor past its
// segment. Walking from the pre-claim cursor snapshot, it must still
// find and wake its registered waiter — a post-claim cursor load would
// misclassify the live waiter as Aborted (a lost wakeup).
func TestCQSStalledResumerFindsWaiter(t *testing.T) {
	q := NewQueue()
	const n = segSize + 1
	for i := 0; i < n; i++ {
		if _, ok := q.Enqueue(i); !ok {
			t.Fatalf("waiter %d eliminated", i)
		}
	}
	// The stalled resumer: snapshot, claim ticket 0, then "stall"
	// before walking (the body of Resume, paused mid-flight).
	start := q.deqSeg.Load()
	id := q.deqIdx.Add(1) - 1
	// Resumers for tickets 1..segSize run to completion; the last one
	// lives in the next segment and drags the cursor past segment 0.
	for i := 1; i < n; i++ {
		h, oc := q.Resume()
		if oc != Woke || h.(int) != i {
			t.Fatalf("concurrent resume %d: got (%v, %v)", i, h, oc)
		}
	}
	if q.deqSeg.Load().id == 0 {
		t.Fatal("test vehicle broken: cursor never advanced past segment 0")
	}
	h, oc := q.resumeTicket(start, id)
	if oc != Woke || h.(int) != 0 {
		t.Fatalf("stalled resumer resolved (%v, %v), want (0, Woke) — lost wakeup", h, oc)
	}
}

// TestCQSStalledEnqueuerRightCell replays the enqueue-side twin: an
// enqueuer claims its ticket and stalls while enqueuers >= segSize
// ahead advance the enqueue cursor past its segment. Resuming from its
// pre-claim snapshot, it must land in exactly its own segment and
// register in its own cell — never another ticket's — and FIFO wakeup
// must still start with it.
func TestCQSStalledEnqueuerRightCell(t *testing.T) {
	q := NewQueue()
	// The stalled enqueuer: snapshot + claim ticket 0, then stall.
	start := q.enqSeg.Load()
	id := q.enqIdx.Add(1) - 1
	// Enqueuers for tickets 1..segSize complete, advancing enqSeg to
	// segment 1.
	for i := 1; i <= segSize; i++ {
		if _, ok := q.Enqueue(i); !ok {
			t.Fatalf("waiter %d eliminated", i)
		}
	}
	if q.enqSeg.Load().id == 0 {
		t.Fatal("test vehicle broken: cursor never advanced past segment 0")
	}
	// The stalled enqueuer finishes registration (the body of Enqueue
	// after the FAA).
	s := Find(start, &q.enqSeg, id/segSize)
	if s.id != id/segSize {
		t.Fatalf("walk from pre-claim snapshot landed on segment %d, want %d", s.id, id/segSize)
	}
	c := &s.Cells[id%segSize]
	c.h = "stalled"
	if !c.state.CompareAndSwap(cellEmpty, cellWaiter) {
		t.Fatal("registration CAS failed with no resumer in flight")
	}
	h, oc := q.Resume()
	if oc != Woke || h != any("stalled") {
		t.Fatalf("first resume resolved (%v, %v), want (stalled, Woke)", h, oc)
	}
}

// TestCQSDrainBound: Drain wakes exactly the waiters registered before
// the snapshot and terminates.
func TestCQSDrainBound(t *testing.T) {
	q := NewQueue()
	const n = 7
	for i := 0; i < n; i++ {
		q.Enqueue(i)
	}
	var woken int
	q.Drain(func(any) { woken++ })
	if woken != n {
		t.Fatalf("drain woke %d of %d", woken, n)
	}
	if _, oc := q.ResumeBounded(q.Enqueued()); oc != Drained {
		t.Fatalf("post-drain bounded resume: outcome %v, want Drained", oc)
	}
}

// TestCQSExclusiveOutcome races one aborter per waiter against a stream
// of resumers and checks the cell CAS arbitration: every waiter is
// either woken or aborted, never both, never neither.
func TestCQSExclusiveOutcome(t *testing.T) {
	const n = 4 * segSize
	q := NewQueue()
	tickets := make([]Ticket, n)
	for i := range tickets {
		tk, ok := q.Enqueue(i)
		if !ok {
			t.Fatalf("waiter %d eliminated", i)
		}
		tickets[i] = tk
	}
	var abortWins, woke, abortedSeen int64
	var wg sync.WaitGroup
	for i := range tickets {
		tk := tickets[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tk.TryAbort() {
				atomic.AddInt64(&abortWins, 1)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/4; j++ {
				_, oc := q.Resume()
				switch oc {
				case Woke:
					atomic.AddInt64(&woke, 1)
				case Aborted:
					atomic.AddInt64(&abortedSeen, 1)
				case Deposited:
					t.Error("deposit with every waiter registered")
				}
			}
		}()
	}
	wg.Wait()
	if woke+abortWins != n {
		t.Fatalf("woke %d + abort wins %d != %d waiters", woke, abortWins, n)
	}
	if abortedSeen != abortWins {
		t.Fatalf("resumers skipped %d aborted cells, aborters won %d", abortedSeen, abortWins)
	}
}

// TestCQSWaiting: Waiting is true exactly while an enqueue ticket is
// unclaimed — whatever became of its cell — and false once resumes have
// caught up with or run ahead of the enqueues.
func TestCQSWaiting(t *testing.T) {
	q := NewQueue()
	check := func(step string, want bool) {
		t.Helper()
		if got := q.Waiting(); got != want {
			t.Fatalf("%s: Waiting() = %v, want %v", step, got, want)
		}
	}
	check("empty queue", false)
	q.Enqueue(1)
	check("one waiter", true)
	if h, oc := q.Resume(); oc != Woke || h != 1 {
		t.Fatalf("resume = (%v, %v), want (1, Woke)", h, oc)
	}
	check("waiter resumed", false)
	if _, oc := q.Resume(); oc != Deposited {
		t.Fatalf("resume ahead = %v, want Deposited", oc)
	}
	check("deposit ahead of the enqueues", false)
	if _, registered := q.Enqueue(2); registered {
		t.Fatal("enqueue registered on a deposited cell")
	}
	check("deposit consumed", false)
	tk, _ := q.Enqueue(3)
	if !tk.TryAbort() {
		t.Fatal("abort of an unclaimed cell lost")
	}
	check("aborted ticket still unclaimed", true)
	if _, oc := q.Resume(); oc != Aborted {
		t.Fatalf("resume of aborted cell = %v, want Aborted", oc)
	}
	check("aborted ticket claimed", false)
	q.Enqueue(4)
	q.Enqueue(5)
	woken := 0
	q.Drain(func(any) { woken++ })
	if woken != 2 {
		t.Fatalf("drain woke %d, want 2", woken)
	}
	check("drained", false)
}

// TestCQSResumeOne: the wake-one loop steps over aborted cells to the
// next waiter, reports a deposit as nothing to deliver, and claims no
// ticket once nobody waits.
func TestCQSResumeOne(t *testing.T) {
	q := NewQueue()
	a, _ := q.Enqueue("a")
	b, _ := q.Enqueue("b")
	q.Enqueue("c")
	a.TryAbort()
	b.TryAbort()
	if h, ok := q.ResumeOne(); !ok || h != any("c") {
		t.Fatalf("ResumeOne = (%v, %v), want (c, true) past two aborted cells", h, ok)
	}
	d, _ := q.Enqueue("d")
	d.TryAbort()
	if h, ok := q.ResumeOne(); ok || q.Waiting() {
		t.Fatalf("ResumeOne = (%v, %v), Waiting = %v; want the lone aborted cell spent and nobody left", h, ok, q.Waiting())
	}
	if h, ok := q.ResumeOne(); ok || h != nil {
		t.Fatalf("ResumeOne on an empty queue = (%v, %v), want a deposit", h, ok)
	}
	if _, registered := q.Enqueue("e"); registered {
		t.Fatal("enqueue after ResumeOne's deposit registered; want elimination")
	}
	if q.Waiting() {
		t.Fatal("a deposit consumed, yet Waiting")
	}
}

// TestCQSSemaphoreAccounting: the abort-compensation protocol — an
// aborted acquirer's decrement is repaired by the next release's skip,
// never by the aborter.
func TestCQSSemaphoreAccounting(t *testing.T) {
	s := NewSemaphore(1)
	if !s.Acquire() {
		t.Fatal("fresh acquire failed")
	}
	if s.Acquire() {
		t.Fatal("second acquire of one permit succeeded")
	}
	tk, ok := s.Register("blocked")
	if !ok {
		t.Fatal("register eliminated with no release in flight")
	}
	if !tk.TryAbort() {
		t.Fatal("abort failed")
	}
	// The holder's release must skip the aborted cell, re-increment,
	// and bank the permit — arriving back at exactly one available.
	if h, granted := s.Release(); granted {
		t.Fatalf("release granted to aborted waiter %v", h)
	}
	if got := s.Permits(); got != 1 {
		t.Fatalf("permits after abort compensation: %d, want 1", got)
	}
	// Transfer path: a live waiter receives the permit directly.
	s.Acquire()
	s.Acquire()
	s.Register("w2")
	if h, granted := s.Release(); !granted || h.(string) != "w2" {
		t.Fatalf("release: got (%v, %v), want (w2, true)", h, granted)
	}
}

// TestCQSSemaphoreStorm hammers a 2-permit semaphore with acquirers
// that randomly abort, park, or win, asserting the permit bound is
// never exceeded and nothing deadlocks. Waiter handles are channels.
func TestCQSSemaphoreStorm(t *testing.T) {
	const (
		cap     = 2
		workers = 8
		iters   = 500
	)
	s := NewSemaphore(cap)
	var inCritical, maxSeen int64
	enter := func() {
		c := atomic.AddInt64(&inCritical, 1)
		for {
			m := atomic.LoadInt64(&maxSeen)
			if c <= m || atomic.CompareAndSwapInt64(&maxSeen, m, c) {
				break
			}
		}
		if c > cap {
			t.Errorf("%d strands inside a %d-permit semaphore", c, cap)
		}
		atomic.AddInt64(&inCritical, -1)
	}
	release := func() {
		if h, granted := s.Release(); granted {
			h.(chan struct{}) <- struct{}{}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			wake := make(chan struct{}, 1)
			for i := 0; i < iters; i++ {
				if s.Acquire() {
					enter()
					release()
					continue
				}
				tk, registered := s.Register(wake)
				if !registered {
					// Eliminated: a release deposited our permit.
					enter()
					release()
					continue
				}
				if rng.Intn(2) == 0 && tk.TryAbort() {
					// Gave up the acquire; compensation is the next
					// release's problem. Do not enter, do not release.
					continue
				}
				<-wake
				enter()
				release()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got := s.Queue().Segments(); got > 3 {
		t.Fatalf("storm left %d segments reachable", got)
	}
}
