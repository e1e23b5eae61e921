package sched

import (
	"testing"

	"nowa/internal/api"
	"nowa/internal/deque"
)

// worker extracts the current worker token of a strand (test-only).
func workerOf(c api.Ctx) int { return c.(*Proc).worker }

// TestMappingContinuationStolen forces the Figure 4d/4e scenario
// deterministically: the child blocks until the continuation has run, so
// the continuation MUST be stolen by the other worker. It then verifies
// the paper's strand-to-worker mapping rules:
//
//   - the child keeps the spawning worker's token (child-first execution);
//   - the stolen continuation runs on the thief's token;
//   - the explicit sync suspends (the child is still running);
//   - the last joiner (the child) hands its token to the sync point, so
//     the strand after the sync runs on the child's worker — Figure 4e's
//     "strand 6 executed by W2, not W1".
//
// The child blocks on a signal only the parent's continuation provides,
// which is exactly the shape that requires SpawnEager (see the deviation
// note on scope.Spawn): under lazy spawning the child would run inline
// before the continuation exists.
func TestMappingContinuationStolen(t *testing.T) {
	for _, cfg := range variantConfigs(2, "nowa", "nowa-the", "fibril") {
		cfg.Spawn = SpawnEager
		rt := MustNew(cfg)
		var rootWorker, childWorker, contWorker, afterSyncWorker int
		release := make(chan struct{})
		rt.Run(func(c api.Ctx) {
			rootWorker = workerOf(c)
			s := c.Scope()
			s.Spawn(func(c api.Ctx) {
				childWorker = workerOf(c)
				<-release // hold the spawning worker until the theft happened
			})
			// This continuation can only be reached via a steal.
			contWorker = workerOf(c)
			close(release)
			s.Sync()
			afterSyncWorker = workerOf(c)
		})
		name := rt.Name()
		cnt := rt.Counters()
		rt.Close()

		if childWorker != rootWorker {
			t.Errorf("%s: child ran on worker %d, want the spawning worker %d", name, childWorker, rootWorker)
		}
		if contWorker == rootWorker {
			t.Errorf("%s: continuation ran on the spawning worker — it must have been stolen", name)
		}
		if cnt.Steals < 1 {
			t.Errorf("%s: no steal recorded", name)
		}
		if cnt.Suspensions < 1 {
			t.Errorf("%s: explicit sync did not suspend", name)
		}
		if afterSyncWorker != childWorker {
			t.Errorf("%s: post-sync strand on worker %d, want the last joiner's worker %d (Figure 4e)",
				name, afterSyncWorker, childWorker)
		}
	}
}

// TestMappingNotStolen is Figure 4's fast-path mapping: when the child
// finishes quickly the continuation is typically resumed in place by the
// popBottom hit, and the whole function stays on one worker.
func TestMappingNotStolen(t *testing.T) {
	rt := NewNowa(1) // one worker: theft impossible
	defer rt.Close()
	var workers []int
	rt.Run(func(c api.Ctx) {
		workers = append(workers, workerOf(c))
		s := c.Scope()
		s.Spawn(func(c api.Ctx) { workers = append(workers, workerOf(c)) })
		workers = append(workers, workerOf(c))
		s.Sync()
		workers = append(workers, workerOf(c))
	})
	for i, w := range workers {
		if w != 0 {
			t.Fatalf("strand %d ran on worker %d, want 0", i, w)
		}
	}
	if cnt := rt.Counters(); cnt.Suspensions != 0 || cnt.Steals != 0 {
		t.Errorf("fast path recorded steals/suspensions: %+v", cnt)
	}
}

// TestMappingImplicitSyncSendsWorkerStealing verifies that after an
// implicit sync with outstanding siblings the worker goes stealing
// (Figure 5's negative tryResume path) rather than idling: with two
// blocked children and a third piece of work available, the token freed
// by the first child's implicit sync must pick it up.
//
// Child A blocks on a signal provided by its sibling, which only the
// stolen continuation spawns — the SpawnEager-requiring shape again.
func TestMappingImplicitSyncSendsWorkerStealing(t *testing.T) {
	rt := MustNew(Config{Name: "nowa", Workers: 2, Deque: deque.CL, Join: WaitFree, Spawn: SpawnEager})
	defer rt.Close()
	gate := make(chan struct{})
	extraRan := make(chan int, 1)
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		// Child A blocks until the extra work has run.
		s.Spawn(func(c api.Ctx) { <-gate })
		// The continuation (stolen by worker 1) spawns the extra work and
		// syncs; the extra work must be executed by SOME token even while
		// child A still blocks worker 0's original token.
		s.Spawn(func(c api.Ctx) {
			extraRan <- workerOf(c)
			close(gate)
		})
		s.Sync()
	})
	select {
	case <-extraRan:
	default:
		t.Fatal("extra work never ran")
	}
}
