package sched

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// The supervisor is the runtime's one sampling goroutine. Its rows —
// stall recovery (armStallRow, per run), the watchdog (StartWatchdog) and
// the memory governor (StartGovernor) — and its rules are in DESIGN.md
// §7. Hooks run on the loop: a blocking hook delays every row, stall
// recovery included, and must not call Stop or Close.

// Row kinds, in pass order: the stall row runs first on every tick.
const (
	rowStall = iota
	rowWatch
	rowPressure
	numRows
)

// Row is one armed row of the supervisor, the handle StartWatchdog and
// StartGovernor return. Arming a kind again replaces its previous row,
// whose Stop then does nothing.
//
//nowa:nopad one per armed detector, a control-path object
type Row struct {
	sup    *supervisor
	kind   int
	period time.Duration
	due    time.Time // the loop's, like pass and what pass closes over
	pass   func()
	acts   atomic.Int64
}

// Stop disarms the row and returns once its pass can no longer run.
// Idempotent, and a no-op after Close.
func (r *Row) Stop() {
	r.sup.do(func(rows *rowTable) {
		if rows[r.kind] == r {
			rows[r.kind] = nil
		}
	})
}

// Actions counts what the row has done: reports for a watchdog, trims
// for a governor.
func (r *Row) Actions() int64 { return r.acts.Load() }

type rowTable [numRows]*Row

// supervisor is the loop's control surface: ctl carries edits of the row
// table the loop owns, ack answers each one, and a nil edit ends the
// loop.
//
//nowa:nopad one per runtime, a control-path singleton
type supervisor struct {
	ctl    chan func(*rowTable)
	ack    chan struct{}
	exited chan struct{}
}

// supStopped stands in for a runtime's supervisor once Close has stopped
// it: nothing is ever received from its ctl, and do returns at once.
var supStopped = func() *supervisor {
	s := &supervisor{exited: make(chan struct{})}
	close(s.exited)
	return s
}()

// do runs edit on the supervisor goroutine, between passes, and returns
// once it has run, or at once when the loop has exited.
func (s *supervisor) do(edit func(*rowTable)) {
	select {
	case s.ctl <- edit:
		<-s.ack
	case <-s.exited:
	}
}

func (s *supervisor) loop() {
	defer close(s.exited)
	var rows rowTable
	t := time.NewTicker(time.Hour)
	t.Stop()
	defer t.Stop()
	var base time.Duration
	var tick <-chan time.Time // nil while no row is armed
	for {
		select {
		case edit := <-s.ctl:
			if edit == nil {
				return
			}
			edit(&rows)
			var b time.Duration
			for _, r := range rows {
				if r != nil && (b == 0 || r.period < b) {
					b = r.period
				}
			}
			switch {
			case b == 0:
				t.Stop()
				tick = nil
			case b != base:
				t.Reset(b)
				tick = t.C
			}
			base = b
			s.ack <- struct{}{}
		case now := <-tick:
			for _, r := range rows {
				// Due within half a base tick: each row fires within one base
				// tick of its own period, the finest on every tick.
				if r != nil && r.due.Sub(now) <= base/2 {
					r.due = now.Add(r.period)
					r.pass()
				}
			}
		}
	}
}

// arm installs r as the row of its kind, starting the supervisor on first
// use. After Close the row never runs.
func (rt *Runtime) arm(r *Row) *Row {
	rt.allMu.Lock()
	if rt.supv == nil {
		rt.supv = &supervisor{ctl: make(chan func(*rowTable)), ack: make(chan struct{}),
			exited: make(chan struct{})}
		go rt.supv.loop()
	}
	r.sup = rt.supv
	rt.allMu.Unlock()
	r.sup.do(func(rows *rowTable) {
		r.due = time.Now().Add(r.period)
		rows[r.kind] = r
	})
	return r
}

// stopSupervisor ends the supervisor goroutine for good (Close).
func (rt *Runtime) stopSupervisor() {
	rt.allMu.Lock()
	s := rt.supv
	rt.supv = supStopped
	rt.allMu.Unlock()
	if s != nil && s != supStopped {
		s.ctl <- nil
		<-s.exited
	}
}

// WatchdogReport is one stall the watchdog row detected.
type WatchdogReport struct {
	Name     string        // the runtime's name
	Ticks    int           // consecutive ticks without progress
	Stalled  time.Duration // Ticks × tick
	Progress uint64        // the stuck progress sum
	Dump     string        // DumpState at the time of the report
}

// String formats the report for logs.
func (r WatchdogReport) String() string {
	return fmt.Sprintf("watchdog: %q stalled for %v (%d ticks) at progress=%d\n%s",
		r.Name, r.Stalled, r.Ticks, r.Progress, r.Dump)
}

// StartWatchdog arms the supervisor's watchdog row: every tick (default
// 100ms) it samples the progress sum, and once stallTicks (default 5)
// consecutive ticks pass without progress while work is outstanding — a
// batch run is live, or a service holds queued or in-flight submissions —
// it reports the stall to onStall (nil: stderr) with DumpState attached,
// once per episode: progress re-arms it. onStall runs on the supervisor
// goroutine; a blocking hook delays stall recovery, and it must not call
// Stop or Close.
func (rt *Runtime) StartWatchdog(tick time.Duration, stallTicks int, onStall func(WatchdogReport)) *Row {
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	if stallTicks <= 0 {
		stallTicks = 5
	}
	if onStall == nil {
		onStall = func(r WatchdogReport) { fmt.Fprint(os.Stderr, r.String()) }
	}
	r := &Row{kind: rowWatch, period: tick}
	last, stalled := rt.progressSum(), 0
	r.pass = func() {
		// A service is one long run whose tokens all sleep while it idles:
		// only its queued and in-flight submissions are outstanding work.
		cur, svc := rt.progressSum(), rt.svc.Load()
		outstanding := rt.running.Load() && (svc == nil || svc.adm.depth.Load() > 0 || svc.inflight.Load() > 0)
		if cur != last || !outstanding {
			last, stalled = cur, 0
			return
		}
		if stalled++; stalled != stallTicks {
			return
		}
		r.acts.Add(1)
		var b strings.Builder
		rt.DumpState(&b)
		onStall(WatchdogReport{Name: rt.cfg.Name, Ticks: stalled,
			Stalled: time.Duration(stalled) * tick, Progress: cur, Dump: b.String()})
	}
	return rt.arm(r)
}
