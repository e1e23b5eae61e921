package api

import (
	"context"
	"runtime"
	"testing"
)

// TestCancelStaleWatcher: a run whose context is cancelled just as it
// ends leaves a wake that End could no longer disarm; if it only gets to
// run after the next Begin, it must not latch that next run as cancelled.
func TestCancelStaleWatcher(t *testing.T) {
	var cs CancelState
	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cs.Begin(ctx, func() {})
		cancel()
		cs.End()

		live, cancelLive := context.WithCancel(context.Background())
		cs.Begin(live, func() {})
		for y := 0; y < 4; y++ {
			runtime.Gosched() // let the stale wake run
		}
		stale := cs.Cancelled()
		cancelLive()
		if !cs.Cancelled() {
			t.Fatalf("iteration %d: run not cancelled after its own cancel()", i)
		}
		cs.End()
		if stale {
			t.Fatalf("iteration %d: an uncancelled run reads Cancelled() — latched by the previous run's wake", i)
		}
	}
}
