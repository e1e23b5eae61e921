package sched

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nowa/internal/api"
)

// supervisorLoops counts the goroutines running a supervisor loop.
func supervisorLoops() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "sched.(*supervisor).loop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSupervisorOneLoop: a serving runtime with all three rows armed runs
// one supervisor goroutine, and Close ends it even though no handle was
// stopped. A runtime that arms nothing runs none.
func TestSupervisorOneLoop(t *testing.T) {
	before := supervisorLoops()
	plain := NewNowa(2)
	plain.Run(func(c api.Ctx) { fib(c, 10) })
	if n := supervisorLoops() - before; n != 0 {
		t.Fatalf("%d supervisor loops on a runtime that armed nothing", n)
	}
	plain.Close()

	rt := MustNew(stallCfg(2))
	if err := rt.StartService(ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	rt.StartWatchdog(5*time.Millisecond, 4, func(WatchdogReport) {})
	rt.StartGovernor(GovernorConfig{Tick: 5 * time.Millisecond, OnTrim: func(TrimReport) {}})
	if n := supervisorLoops() - before; n != 1 {
		t.Fatalf("%d supervisor loops while serving with stall, watchdog and governor armed, want 1", n)
	}
	rt.Close()
	// The loop is joined before Close returns; allow it the instant it
	// takes to leave the stack after signalling its exit.
	for deadline := time.Now().Add(time.Second); supervisorLoops() != before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d supervisor loops left after Close", supervisorLoops()-before)
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}
