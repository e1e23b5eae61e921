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

// TestSubmitAdmitFailFastRefusesWhenFull: at capacity a FailFast queue
// reports full and leaves the queued submission in place.
func TestSubmitAdmitFailFastRefusesWhenFull(t *testing.T) {
	q := &admitSvc(1, OverloadFailFast).adm
	a := mkSub(false)
	if out, _ := q.tryAdmit(a); out != admitOK {
		t.Fatalf("admit: %d", out)
	}
	if out, victim := q.tryAdmit(mkSub(false)); out != admitFull || victim != nil {
		t.Fatalf("failfast full: out=%d victim=%p, want admitFull and no victim", out, victim)
	}
	if got := q.take(); got != a || q.depth.Load() != 1 {
		t.Fatalf("queued %p at depth %d, want %p at depth 1", got, q.depth.Load(), a)
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
