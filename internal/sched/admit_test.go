package sched

import (
	"testing"
)

func mkSub() *Submission {
	return &Submission{done: make(chan struct{})}
}

// admitSvc is a service with nothing but its admission queue, enough for
// tryAdmit and takeNext.
func admitSvc(depth int, policy OverloadPolicy) *service {
	svc := &service{}
	svc.adm.init(depth, policy)
	return svc
}

// TestSubmitAdmitShedOrder: at capacity a Shed queue evicts the oldest
// queued submission and the newcomer queues behind the rest, so it is
// taken last.
func TestSubmitAdmitShedOrder(t *testing.T) {
	svc := admitSvc(2, OverloadShed)
	q := &svc.adm
	a, b, c := mkSub(), mkSub(), mkSub()
	for _, s := range []*Submission{a, b} {
		if out, _ := q.tryAdmit(s); out != admitOK {
			t.Fatalf("admit: %d", out)
		}
	}
	out, victim := q.tryAdmit(c)
	if out != admitOK || victim != a {
		t.Fatalf("shed: out=%d victim=%p, want admitOK with the oldest (%p)", out, victim, a)
	}
	if q.depth.Load() != 2 {
		t.Fatalf("depth = %d after a shed, want 2", q.depth.Load())
	}
	for i, w := range []*Submission{b, c} {
		if got := svc.takeNext(); got != w {
			t.Fatalf("take %d = %p, want %p", i, got, w)
		}
	}
}

// TestSubmitAdmitFailFastRefusesWhenFull: at capacity a FailFast queue
// reports full and leaves the queued submission in place.
func TestSubmitAdmitFailFastRefusesWhenFull(t *testing.T) {
	q := &admitSvc(1, OverloadFailFast).adm
	a := mkSub()
	if out, _ := q.tryAdmit(a); out != admitOK {
		t.Fatalf("admit: %d", out)
	}
	if out, victim := q.tryAdmit(mkSub()); out != admitFull || victim != nil {
		t.Fatalf("failfast full: out=%d victim=%p, want admitFull and no victim", out, victim)
	}
	if got := q.take(); got != a || q.depth.Load() != 1 {
		t.Fatalf("queued %p at depth %d, want %p at depth 1", got, q.depth.Load(), a)
	}
}

// TestSubmitAdmitDispatchOrder: taking tokens dispatch oldest-first.
func TestSubmitAdmitDispatchOrder(t *testing.T) {
	svc := admitSvc(4, OverloadBlock)
	q := &svc.adm
	want := []*Submission{mkSub(), mkSub(), mkSub()}
	for _, s := range want {
		if out, _ := q.tryAdmit(s); out != admitOK {
			t.Fatalf("admit: %d", out)
		}
	}
	for i, w := range want {
		if got := svc.takeNext(); got != w {
			t.Fatalf("take %d = %p, want %p", i, got, w)
		}
	}
	if got := svc.takeNext(); got != nil {
		t.Fatalf("take empty = %p, want nil", got)
	}
	if q.depth.Load() != 0 {
		t.Fatalf("depth = %d after drain, want 0", q.depth.Load())
	}
}

func TestSubmitAdmitClosed(t *testing.T) {
	q := &admitSvc(2, OverloadBlock).adm
	q.close()
	q.close() // idempotent
	if out, _ := q.tryAdmit(mkSub()); out != admitClosed {
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
		subs := []*Submission{mkSub(), mkSub(), mkSub()}
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
