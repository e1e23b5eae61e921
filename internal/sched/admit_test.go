package sched

import (
	"testing"
)

func mkSub(prio bool) *Submission {
	return &Submission{prio: prio, done: make(chan struct{})}
}

// admitSvc is a service with nothing but its admission queue, enough for
// tryAdmit and takeNext.
func admitSvc(depth int, policy OverloadPolicy) *service {
	svc := &service{}
	svc.adm.init(depth, policy)
	return svc
}

func TestSubmitAdmitWindowGrades(t *testing.T) {
	var q admitQueue
	q.init(8, OverloadBlock)
	if got := q.effWindow(gradeNone); got != 8 {
		t.Fatalf("effWindow(none) = %d, want 8", got)
	}
	if got := q.effWindow(gradeMild); got != 4 {
		t.Fatalf("effWindow(mild) = %d, want 4", got)
	}
	if got := q.effWindow(gradeSevere); got != 2 {
		t.Fatalf("effWindow(severe) = %d, want 2", got)
	}
	// The window never closes completely: a depth-1 queue under severe
	// pressure still admits one.
	var q1 admitQueue
	q1.init(1, OverloadBlock)
	if got := q1.effWindow(gradeSevere); got != 1 {
		t.Fatalf("effWindow floor = %d, want 1", got)
	}
}

func TestSubmitAdmitShedOrder(t *testing.T) {
	q := &admitSvc(2, OverloadShed).adm
	hi, lo := mkSub(true), mkSub(false)
	if out, _ := q.tryAdmit(hi); out != admitOK {
		t.Fatalf("admit hi: %d", out)
	}
	if out, _ := q.tryAdmit(lo); out != admitOK {
		t.Fatalf("admit lo: %d", out)
	}
	// Full queue sheds the *normal*-lane entry first, sparing the older
	// high-priority one.
	out, victim := q.tryAdmit(mkSub(false))
	if out != admitOK || victim != lo {
		t.Fatalf("shed: out=%d victim=%p, want admitOK with lo (%p)", out, victim, lo)
	}

	// When only high-priority entries are queued, they shed too (oldest
	// first) rather than refuse.
	qh := &admitSvc(2, OverloadShed).adm
	h1, h2 := mkSub(true), mkSub(true)
	qh.tryAdmit(h1)
	qh.tryAdmit(h2)
	out, victim = qh.tryAdmit(mkSub(false))
	if out != admitOK || victim != h1 {
		t.Fatalf("shed high lane as last resort: out=%d victim=%p, want h1 (%p)", out, victim, h1)
	}
	_ = hi
}

func TestSubmitAdmitSevereShedsUnderAnyPolicy(t *testing.T) {
	q := &admitSvc(8, OverloadFailFast).adm
	q.pressure.Store(gradeSevere)
	a := mkSub(false)
	if out, _ := q.tryAdmit(a); out != admitOK {
		t.Fatalf("admit under severe: %d", out)
	}
	if out, _ := q.tryAdmit(mkSub(false)); out != admitOK {
		t.Fatalf("admit 2 under severe: %d", out)
	}
	// Window (8/4 = 2) full: severe pressure must shed even though the
	// policy is FailFast — overload cannot queue-build past the window.
	out, victim := q.tryAdmit(mkSub(false))
	if out != admitOK || victim != a {
		t.Fatalf("severe shed: out=%d victim=%p, want admitOK with a (%p)", out, victim, a)
	}
	// Without pressure the same policy refuses instead.
	q2 := &admitSvc(1, OverloadFailFast).adm
	q2.tryAdmit(mkSub(false))
	if out, _ := q2.tryAdmit(mkSub(false)); out != admitFull {
		t.Fatalf("failfast full: out=%d, want admitFull", out)
	}
}

func TestSubmitAdmitDispatchOrder(t *testing.T) {
	svc := admitSvc(4, OverloadBlock)
	q := &svc.adm
	lo1, hi1, lo2 := mkSub(false), mkSub(true), mkSub(false)
	for _, s := range []*Submission{lo1, hi1, lo2} {
		if out, _ := q.tryAdmit(s); out != admitOK {
			t.Fatalf("admit: %d", out)
		}
	}
	// High lane dequeues first, then normal in FIFO order.
	want := []*Submission{hi1, lo1, lo2}
	for i, w := range want {
		if got := svc.takeNext(); got != w {
			t.Fatalf("pop %d = %p, want %p", i, got, w)
		}
	}
	if got := svc.takeNext(); got != nil {
		t.Fatalf("pop empty = %p, want nil", got)
	}
	if q.depth.Load() != 0 {
		t.Fatalf("depth = %d after drain, want 0", q.depth.Load())
	}
}

func TestSubmitAdmitClosed(t *testing.T) {
	q := &admitSvc(2, OverloadBlock).adm
	q.close()
	q.close() // idempotent
	if out, _ := q.tryAdmit(mkSub(false)); out != admitClosed {
		t.Fatalf("admit after close: %d, want admitClosed", out)
	}
	select {
	case <-q.closedCh:
	default:
		t.Fatal("closedCh not closed")
	}
}

func TestSubmitRingWrap(t *testing.T) {
	svc := admitSvc(3, OverloadBlock)
	q := &svc.adm
	seen := make(map[*Submission]bool)
	// Push/pop more items than the capacity so the ring indices wrap.
	for round := 0; round < 5; round++ {
		subs := []*Submission{mkSub(false), mkSub(false), mkSub(false)}
		for _, s := range subs {
			if out, _ := q.tryAdmit(s); out != admitOK {
				t.Fatalf("round %d admit: %d", round, out)
			}
		}
		for i, w := range subs {
			got := svc.takeNext()
			if got != w {
				t.Fatalf("round %d pop %d: got %p want %p", round, i, got, w)
			}
			if seen[got] {
				t.Fatalf("round %d pop %d: %p dequeued twice", round, i, got)
			}
			seen[got] = true
		}
	}
}
