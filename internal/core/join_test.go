package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nowa/internal/deque"
)

func TestWaitFreeSequentialRound(t *testing.T) {
	j := NewWaitFreeJoin()
	// Two steals, one pre-sync join, sync, one post-sync join.
	j.OnSteal()
	j.OnSteal()
	if j.Forked() != 2 {
		t.Fatalf("Forked = %d, want 2", j.Forked())
	}
	if j.OnChildJoin() {
		t.Fatal("pre-sync join observed the sync condition (Invariant I violated)")
	}
	if j.SyncBegin() {
		t.Fatal("SyncBegin reported ready with one child outstanding")
	}
	if !j.OnChildJoin() {
		t.Fatal("last join did not observe the sync condition")
	}
	j.Rearm()
	if j.Forked() != 0 || j.counter.Load() != IMax {
		t.Fatalf("Rearm left alpha=%d counter=%d", j.Forked(), j.counter.Load())
	}
}

func TestWaitFreeSyncWithNoSteals(t *testing.T) {
	j := NewWaitFreeJoin()
	if !j.SyncBegin() {
		t.Fatal("SyncBegin with alpha=0 must report ready immediately")
	}
	j.Rearm()
}

func TestWaitFreeAllJoinedBeforeSync(t *testing.T) {
	j := NewWaitFreeJoin()
	for i := 0; i < 5; i++ {
		j.OnSteal()
	}
	for i := 0; i < 5; i++ {
		if j.OnChildJoin() {
			t.Fatalf("join %d observed sync condition before restore", i)
		}
	}
	if !j.SyncBegin() {
		t.Fatal("SyncBegin must observe the condition when all children joined")
	}
}

func TestWaitFreeMultipleRounds(t *testing.T) {
	j := NewWaitFreeJoin()
	for round := 0; round < 10; round++ {
		n := round % 4
		for i := 0; i < n; i++ {
			j.OnSteal()
		}
		ready := j.SyncBegin()
		if n == 0 && !ready {
			t.Fatalf("round %d: empty round not ready", round)
		}
		if n > 0 {
			if ready {
				t.Fatalf("round %d: ready with %d outstanding", round, n)
			}
			for i := 0; i < n-1; i++ {
				if j.OnChildJoin() {
					t.Fatalf("round %d: early ready", round)
				}
			}
			if !j.OnChildJoin() {
				t.Fatalf("round %d: last join not ready", round)
			}
		}
		j.Rearm()
	}
}

// TestWaitFreeRestoreAlgebra verifies Eq. 3–5: for any α ≥ ω ≥ 0 and any
// split of the joins around the restore point, the counter after all
// operations equals α − ω_total, and it is zero iff all forked strands
// joined.
func TestWaitFreeRestoreAlgebra(t *testing.T) {
	f := func(alphaRaw, omegaPreRaw, omegaPostRaw uint8) bool {
		alpha := int64(alphaRaw % 40)
		pre := int64(omegaPreRaw)
		post := int64(omegaPostRaw)
		if pre+post > alpha {
			// Normalise to a legal schedule: cannot join more than forked.
			pre = pre % (alpha + 1)
			post = alpha - pre
		}
		j := NewWaitFreeJoin()
		for i := int64(0); i < alpha; i++ {
			j.OnSteal()
		}
		for i := int64(0); i < pre; i++ {
			if j.OnChildJoin() {
				return false // zero observed in phase 1: impossible
			}
		}
		// Phase 1 counter is I_max − ω (Eq. 2).
		if j.counter.Load() != IMax-pre {
			return false
		}
		ready := j.SyncBegin()
		if ready != (pre+post == alpha && post == 0) {
			return false
		}
		sawZero := ready
		for i := int64(0); i < post; i++ {
			if j.OnChildJoin() {
				if sawZero {
					return false // second zero observation
				}
				sawZero = true
			}
		}
		// Exactly one observer iff the round completed (pre+post == alpha).
		return sawZero == (pre+post == alpha)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRestoreDelta: SyncBegin subtracts I_max − α from the phase-1
// counter (Eq. 5), leaving N_r = α − ω.
func TestRestoreDelta(t *testing.T) {
	for _, alpha := range []int64{0, 1, 7, 1 << 20} {
		j := NewWaitFreeJoin()
		j.alpha = alpha
		j.OnChildJoin()
		j.SyncBegin()
		if got := j.counter.Load(); got != alpha-1 {
			t.Errorf("α = %d, ω = 1: counter %d after the restore, want %d", alpha, got, alpha-1)
		}
	}
}

// TestWaitFreeConcurrentJoiners runs many rounds with concurrent joiners
// racing the restore; exactly one zero observation must occur per round.
func TestWaitFreeConcurrentJoiners(t *testing.T) {
	j := NewWaitFreeJoin()
	const rounds = 500
	const children = 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < children; i++ {
			j.OnSteal()
		}
		var zeros atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < children; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if j.OnChildJoin() {
					zeros.Add(1)
				}
			}()
		}
		close(start)
		if j.SyncBegin() {
			zeros.Add(1)
		}
		wg.Wait()
		if zeros.Load() != 1 {
			t.Fatalf("round %d: %d zero observations, want exactly 1", r, zeros.Load())
		}
		j.Rearm()
	}
}

// TestWaitFreePhase1NeverZero floods phase 1 with joins (no restore) and
// checks that no joiner ever observes zero — the benign-race property.
func TestWaitFreePhase1NeverZero(t *testing.T) {
	j := NewWaitFreeJoin()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100_000; i++ {
				if j.OnChildJoin() {
					t.Error("phase-1 joiner observed zero")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLockedSequentialRound(t *testing.T) {
	j := NewLockedJoin()
	j.OnSteal()
	j.OnSteal()
	if j.Forked() != 2 {
		t.Fatalf("Forked = %d, want 2", j.Forked())
	}
	if j.OnChildJoin() {
		t.Fatal("join before SyncBegin must not report ready (parent not suspended)")
	}
	if j.SyncBegin() {
		t.Fatal("SyncBegin ready with one child outstanding")
	}
	if !j.OnChildJoin() {
		t.Fatal("last join did not report ready")
	}
	j.Rearm()
	if j.Forked() != 0 {
		t.Fatalf("Rearm left forked=%d", j.Forked())
	}
}

func TestLockedSyncNoChildren(t *testing.T) {
	j := NewLockedJoin()
	if !j.SyncBegin() {
		t.Fatal("SyncBegin with no steals must be ready")
	}
}

func TestLockedNegativeCountPanics(t *testing.T) {
	j := NewLockedJoin()
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched OnChildJoin did not panic")
		}
	}()
	j.OnChildJoin()
}

// TestLockedOnStealLocked: the count increment StealCoupled makes under
// the overlapping locks is OnSteal's.
func TestLockedOnStealLocked(t *testing.T) {
	j := NewLockedJoin()
	d := deque.NewTHE[int](2)
	if _, o := StealCoupled(d, func(*int) *LockedJoin { return j }); o != deque.StealEmpty {
		t.Fatalf("steal from an empty deque: %v", o)
	}
	x := 1
	d.PushBottom(&x)
	if c, o := StealCoupled(d, func(*int) *LockedJoin { return j }); o != deque.StealHit || c != &x {
		t.Fatalf("steal: %v, %v", c, o)
	}
	if j.Forked() != 1 {
		t.Fatalf("Forked = %d, want 1", j.Forked())
	}
	if j.SyncBegin() {
		t.Fatal("ready with one outstanding child")
	}
	if !j.OnChildJoin() {
		t.Fatal("last join not ready")
	}
}

// TestLockedConcurrentRound mirrors the wait-free concurrent test for the
// locked baseline, with steals and joins properly ordered per child.
func TestLockedConcurrentRound(t *testing.T) {
	j := NewLockedJoin()
	const rounds = 200
	const children = 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < children; i++ {
			j.OnSteal()
		}
		var readies atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < children; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if j.OnChildJoin() {
					readies.Add(1)
				}
			}()
		}
		ready := j.SyncBegin() // before releasing joiners: parent suspends first
		close(start)
		wg.Wait()
		total := readies.Load()
		if ready {
			total++
		}
		if total != 1 {
			t.Fatalf("round %d: %d ready observations, want 1", r, total)
		}
		j.Rearm()
	}
}

// Interface conformance.
var (
	_ Join = (*WaitFreeJoin)(nil)
	_ Join = (*LockedJoin)(nil)
)

// TestOutstandingTracksLiveStolenChildren: during phase 1 both protocols
// report steals minus joins, the bound the scheduler holds stacks by.
func TestOutstandingTracksLiveStolenChildren(t *testing.T) {
	wf, lj := NewWaitFreeJoin(), NewLockedJoin()
	check := func(want int64) {
		t.Helper()
		if got := wf.Outstanding(); got != want {
			t.Errorf("wait-free Outstanding = %d, want %d", got, want)
		}
		if got := lj.Outstanding(); got != want {
			t.Errorf("locked Outstanding = %d, want %d", got, want)
		}
	}
	check(0)
	for i := 0; i < 3; i++ {
		wf.OnSteal()
		lj.OnSteal()
	}
	check(3)
	wf.OnChildJoin()
	lj.OnChildJoin()
	wf.OnChildJoin()
	lj.OnChildJoin()
	check(1)
	wf.OnSteal()
	lj.OnSteal()
	check(2)
}
