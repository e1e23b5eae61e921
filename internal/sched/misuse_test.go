package sched

import (
	"strings"
	"testing"

	"nowa/internal/api"
)

// mustPanicContaining runs f and asserts it panics with a message (or
// error) containing want.
func mustPanicContaining(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		var msg string
		switch v := r.(type) {
		case string:
			msg = v
		case error:
			msg = v.Error()
		default:
			t.Fatalf("panic value %T (%v); want string containing %q", r, r, want)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

// TestPanicRunAfterClose: using a Runtime after Close is a programming
// error and must fail loudly at the Run call, not hang or corrupt state.
func TestPanicRunAfterClose(t *testing.T) {
	rt := NewNowa(2)
	var got int
	rt.Run(func(c api.Ctx) { got = 1 + 1 })
	if got != 2 {
		t.Fatalf("warm-up run failed")
	}
	rt.Close()
	mustPanicContaining(t, "Run on closed Runtime", func() {
		rt.Run(func(api.Ctx) {})
	})
}

// TestPanicCloseDuringRun: closing a Runtime while a Run is live must
// panic explicitly instead of tearing vessels out from under the
// computation.
func TestPanicCloseDuringRun(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		rt.Run(func(c api.Ctx) {
			close(started)
			<-release
		})
	}()
	<-started
	mustPanicContaining(t, "Close during Run", rt.Close)
	close(release)
	<-finished
}

// TestPanicPinsDeepScope unwinds a strand past an un-synced scope nine
// levels down — the first slot beyond the vessel's inline ones — while
// the child spawned there is still running beside its stolen
// continuation. The slot must stay out of circulation (a live child
// will still touch its join) and be tallied as one leaked scope; once
// the child has joined, the next strand end on the vessel reclaims the
// slot without tallying it again, and the runtime keeps working.
func TestPanicPinsDeepScope(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	release := make(chan struct{})
	var pinnedOn *vessel
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("the strand's panic did not propagate out of Run")
			}
		}()
		rt.Run(func(c api.Ctx) {
			root := c.Scope().(*scope)
			root.spawnEager(func(c api.Ctx) {
				pinnedOn = c.(*Proc).v
				for i := 0; i < scopeInline; i++ {
					c.Scope()
				}
				deep := c.Scope().(*scope)
				// The child blocks until the root has seen this strand
				// end, so this strand's continuation must be stolen.
				deep.spawnEager(func(api.Ctx) { <-release })
				panic("unwound past a deep un-synced scope")
			})
			root.Sync()
			close(release)
		})
	}()
	v := pinnedOn
	deep := v.scopes[scopeInline-1].up // depth scopeInline+1, the first chunk slot
	if v.top != deep.up || !deep.pinned {
		t.Fatalf("top at depth %d, pinned = %v; want the slot at depth %d pinned",
			scopeDepth(v), deep.pinned, scopeInline+1)
	}
	if got := rt.Stats().ScopesLeaked; got != 1 {
		t.Fatalf("ScopesLeaked = %d, want 1", got)
	}
	// The runtime is idle and the child has joined: what the vessel's
	// next strand end does.
	v.resetScopes()
	if v.top != &v.scopes[0] || deep.pinned {
		t.Fatalf("quiescent slot not reclaimed: top at depth %d, pinned = %v", scopeDepth(v), deep.pinned)
	}
	if got := rt.Stats().ScopesLeaked; got != 1 {
		t.Fatalf("ScopesLeaked = %d after the reclaim, want 1 (tallied once)", got)
	}
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 15) })
	if got != fibSerial(15) {
		t.Fatalf("fib(15) = %d on the runtime after the pinned slot was reclaimed", got)
	}
}

// scopeDepth counts the live slots below the vessel's top.
func scopeDepth(v *vessel) int {
	n := 0
	for s := v.top.down; s != nil; s = s.down {
		n++
	}
	return n
}
