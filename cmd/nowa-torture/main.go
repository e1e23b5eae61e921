// Command nowa-torture is the robustness soak driver: it cycles kernels ×
// scheduler variants × worker counts × chaos seeds/intensities × resource
// budgets × cancellation deadlines, continuously checking the scheduler's
// invariants after every trial. Every trial runs with the schedule
// recorder attached, so when an invariant breaks the tool already holds
// the event log: it writes a repro bundle (config + seeds + schedule),
// confirms the bundle replays to the same failure via Config.Replay, then
// shrinks the trial — fewer workers, lower chaos rates, no budgets, no
// deadline — to a minimal configuration that still fails, and writes the
// minimal bundle next to the original.
//
// Modes:
//
//	nowa-torture -duration 30s -out torture-out   # soak (exit 1 on failure)
//	nowa-torture -replay torture-out/x.bundle     # re-run a captured failure
//	nowa-torture -selftest                        # pipeline check against the
//	                                              # planted Chaos.LeakVessel bug
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/blockapps"
	"nowa/internal/cactus"
	"nowa/internal/deque"
	"nowa/internal/replay"
	"nowa/internal/sched"
)

func main() {
	var (
		duration = flag.Duration("duration", 30*time.Second, "soak duration")
		seed     = flag.Int64("seed", 1, "trial-matrix seed")
		out      = flag.String("out", "torture-out", "directory for repro bundles")
		kernels  = flag.String("kernels", "fib,integrate,quicksort,nqueens", "comma-separated kernel list (test scale)")
		variants = flag.String("variants", "nowa,nowa-the,fibril,cilkplus", "comma-separated variant list")
		chaos    = flag.String("chaos", strings.Join(chaosClasses, ","),
			"comma-separated chaos classes the matrix may draw (off, light, heavy, promote, stall, abort)")
		maxWorkers = flag.Int("workers", runtime.NumCPU(), "cap on trial worker counts")
		ringCap    = flag.Int("ring", 1<<15, "per-worker recorder capacity (events)")
		replayPath = flag.String("replay", "", "replay a bundle instead of soaking")
		selftest   = flag.Bool("selftest", false, "validate the capture→replay→shrink pipeline against the planted LeakVessel bug")
		service    = flag.Bool("service", false, "soak service mode instead of batch runs: concurrent submissions with mixed deadlines, priorities, panics and admission chaos, checking drain quiescence and accounting")
		verbose    = flag.Bool("v", false, "log every trial")
	)
	flag.Parse()

	switch {
	case *replayPath != "":
		os.Exit(replayBundle(*replayPath, *verbose))
	case *selftest:
		os.Exit(selfTest(*out, *ringCap))
	default:
		os.Exit(soak(soakConfig{
			duration:   *duration,
			seed:       *seed,
			out:        *out,
			kernels:    splitList(*kernels),
			variants:   splitList(*variants),
			chaos:      splitList(*chaos),
			maxWorkers: *maxWorkers,
			ringCap:    *ringCap,
			service:    *service,
			verbose:    *verbose,
		}))
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// variantConfig maps a variant name from a trial or a bundle onto its
// scheduler configuration — the same mapping the public nowa package
// uses, restated here so a bundle is self-describing by name.
func variantConfig(name string, workers int) (sched.Config, error) {
	switch name {
	case "nowa":
		return sched.Config{Name: name, Workers: workers, Deque: deque.CL, Join: sched.WaitFree}, nil
	case "nowa-the":
		return sched.Config{Name: name, Workers: workers, Deque: deque.THE, Join: sched.WaitFree}, nil
	case "fibril":
		return sched.Config{Name: name, Workers: workers, Deque: deque.THE, Join: sched.LockedFibril}, nil
	case "cilkplus":
		return sched.Config{Name: name, Workers: workers, Deque: deque.THE, Join: sched.LockedFibril,
			Stacks: cactus.Config{GlobalCap: 8 * workers}}, nil
	}
	return sched.Config{}, fmt.Errorf("unknown variant %q (want nowa, nowa-the, fibril or cilkplus)", name)
}

// chaosFromSpec converts a bundle's serialised chaos block back into the
// scheduler's form; specFromChaos is its inverse. The two structs mirror
// each other field for field (replay cannot import sched).
func chaosFromSpec(s *replay.ChaosSpec) *sched.Chaos {
	if s == nil {
		return nil
	}
	return &sched.Chaos{
		Seed: s.Seed, StealDelay: s.StealDelay, StealFail: s.StealFail,
		PopBottomDelay: s.PopBottomDelay, SyncDelay: s.SyncDelay,
		AllocFail: s.AllocFail, SyncVesselFail: s.SyncVesselFail,
		LeakVessel: s.LeakVessel, SubmitFail: s.SubmitFail,
		StealInterest: s.StealInterest, DelaySpins: s.DelaySpins,
		StallWorker: s.StallWorker, StallFor: time.Duration(s.StallForUS) * time.Microsecond,
		SubmitLatency:    s.SubmitLatency,
		SubmitLatencyFor: time.Duration(s.SubmitLatencyForUS) * time.Microsecond,
		AbortWait:        s.AbortWait, WakeupDelay: s.WakeupDelay,
	}
}

func specFromChaos(c *sched.Chaos) *replay.ChaosSpec {
	if c == nil {
		return nil
	}
	return &replay.ChaosSpec{
		Seed: c.Seed, StealDelay: c.StealDelay, StealFail: c.StealFail,
		PopBottomDelay: c.PopBottomDelay, SyncDelay: c.SyncDelay,
		AllocFail: c.AllocFail, SyncVesselFail: c.SyncVesselFail,
		LeakVessel: c.LeakVessel, SubmitFail: c.SubmitFail,
		StealInterest: c.StealInterest, DelaySpins: c.DelaySpins,
		StallWorker: c.StallWorker, StallForUS: c.StallFor.Microseconds(),
		SubmitLatency:      c.SubmitLatency,
		SubmitLatencyForUS: c.SubmitLatencyFor.Microseconds(),
		AbortWait:          c.AbortWait, WakeupDelay: c.WakeupDelay,
	}
}

// buildConfig turns a trial description (which doubles as the bundle
// metadata) into a runnable scheduler configuration.
func buildConfig(m replay.Meta) (sched.Config, error) {
	cfg, err := variantConfig(m.Variant, m.Workers)
	if err != nil {
		return sched.Config{}, err
	}
	cfg.Seed = m.Seed
	cfg.DequeCap = m.DequeCap
	cfg.MaxVessels = m.MaxVessels
	cfg.SoftMaxVessels = m.SoftMaxVessels
	if m.MaxStacks > 0 {
		cfg.Stacks.GlobalCap = m.MaxStacks
		cfg.Stacks.CapMode = cactus.CapSoft
	}
	cfg.ParkAfter = m.ParkAfter
	if m.SpawnEager {
		cfg.Spawn = sched.SpawnEager
	}
	cfg.Chaos = chaosFromSpec(m.Chaos)
	cfg.StallThreshold = time.Duration(m.StallThresholdUS) * time.Microsecond
	cfg.MaxSupplements = m.MaxSupplements
	return cfg, nil
}

// recSlots is the recorder width a trial needs: base workers plus the
// supplemental slots stall recovery may occupy (supplements record
// scheduling decisions on extended slot indices).
func recSlots(m replay.Meta) int {
	if m.StallThresholdUS <= 0 {
		return m.Workers
	}
	if m.MaxSupplements > 0 {
		return m.Workers + m.MaxSupplements
	}
	return 2 * m.Workers // MaxSupplements defaults to Workers
}

// runTrial executes one trial and checks every invariant, returning ""
// on a clean pass or a "class: detail" failure string. A non-nil rec is
// attached for capture; a non-nil log drives the run via Config.Replay.
func runTrial(m replay.Meta, rec *replay.Recorder, log *replay.Log) (failure string) {
	cfg, err := buildConfig(m)
	if err != nil {
		return "config: " + err.Error()
	}
	cfg.Record = rec
	cfg.Replay = log
	rt, err := sched.New(cfg)
	if err != nil {
		return "config: " + err.Error()
	}
	defer rt.Close()
	app, err := blockapps.ByName(m.Kernel, apps.Test)
	if err != nil {
		return "config: " + err.Error()
	}
	app.Prepare()

	var runErr error
	panicked := func() (p string) {
		defer func() {
			if r := recover(); r != nil {
				p = fmt.Sprintf("panic: %v", r)
			}
		}()
		if m.TimeoutMS > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(m.TimeoutMS)*time.Millisecond)
			defer cancel()
			runErr = rt.RunCtx(ctx, app.Run)
		} else {
			rt.Run(app.Run)
		}
		return ""
	}()
	if panicked != "" {
		return panicked
	}

	// Serial equivalence: a run that was not cancelled must compute the
	// serial answer, whatever the schedule and the (sound) chaos did.
	if runErr == nil {
		if err := app.Verify(); err != nil {
			return "verify: " + err.Error()
		}
	}
	// Token conservation: every worker token handed out came back.
	if left := rt.DebugTokensLeft(); left != 0 {
		return fmt.Sprintf("tokens: %d tokens unaccounted after Run", left)
	}
	// Quiescence: no continuation may survive in any deque, including
	// the extended slots stall-recovery supplements ran on.
	for w := 0; w < rt.DebugSlots(); w++ {
		if n := rt.DebugDequeSize(w); n != 0 {
			return fmt.Sprintf("quiescence: deque %d holds %d continuations after Run", w, n)
		}
	}
	// Leak reconciliation: idle-time resource accounting must balance.
	st := rt.Stats()
	// Supplement conservation: every supplemental worker dispatched by
	// stall recovery retired its token by the end of the run.
	if st.WorkersSupplemented != st.SupplementsRetired {
		return fmt.Sprintf("supplement-leak: %d supplements dispatched, %d retired",
			st.WorkersSupplemented, st.SupplementsRetired)
	}
	if st.VesselsLeaked != 0 {
		return fmt.Sprintf("vessel-leak: %d vessels never returned to a free list", st.VesselsLeaked)
	}
	if st.StacksLeaked != 0 {
		return fmt.Sprintf("stack-leak: %d stacks unaccounted", st.StacksLeaked)
	}
	if st.ScopesLeaked != 0 {
		return fmt.Sprintf("scope-leak: %d scopes abandoned", st.ScopesLeaked)
	}
	// Wait conservation: every external blocking wait ended exactly once,
	// by resume or by abort, and nothing is still parked. Checked under a
	// deadline too — cancellation must abort waiters, never strand them —
	// which is the torture invariant behind the abort chaos class.
	if st.BlockedWaits != st.ResumedWaits+st.AbortedWaits {
		return fmt.Sprintf("wait-leak: BlockedWaits(%d) != ResumedWaits(%d)+AbortedWaits(%d)",
			st.BlockedWaits, st.ResumedWaits, st.AbortedWaits)
	}
	if st.BlockedLive != 0 {
		return fmt.Sprintf("wait-leak: %d waiters still parked after Run", st.BlockedLive)
	}
	// Counter conservation: every eagerly published continuation was
	// either popped back or stolen; inline commits (lazy promotion,
	// DESIGN.md §14) produce neither. (Skipped under a deadline:
	// cancellation legitimately redirects spawns inline mid-flight.)
	if m.TimeoutMS == 0 {
		if err := rt.Counters().CheckQuiescent(); err != nil {
			return "counters: " + err.Error()
		}
	}
	return ""
}

// --- Service-mode soak (-service) ---------------------------------------

// serviceSpec is one service trial's shape: the admission configuration
// plus the submission mix the producers generate.
type serviceSpec struct {
	policy        sched.OverloadPolicy
	depth         int
	producers     int
	perProd       int
	panicEvery    int // every Nth submission panics at top level (0 = never)
	deadlineEvery int // every Nth submission carries a 0–3ms deadline
	prioEvery     int // every Nth submission is high priority
	stallEvery    int // every Nth submission sleeps 2ms mid-strand (0 = never)
	burst         int // submissions left in flight when Close drains
}

func drawServiceSpec(rng *uint64) serviceSpec {
	pick := func(k int) int { return int(splitmix64(rng) % uint64(k)) }
	return serviceSpec{
		policy:        []sched.OverloadPolicy{sched.OverloadBlock, sched.OverloadFailFast, sched.OverloadShed}[pick(3)],
		depth:         []int{1, 4, 16, 64}[pick(4)],
		producers:     2 + pick(6),
		perProd:       20 + pick(60),
		panicEvery:    []int{0, 5, 9}[pick(3)],
		deadlineEvery: []int{0, 3, 7}[pick(3)],
		prioEvery:     []int{0, 4}[pick(2)],
		stallEvery:    []int{0, 0, 7}[pick(3)],
		burst:         pick(24),
	}
}

func serviceLabel(m replay.Meta, sc serviceSpec) string {
	return fmt.Sprintf("service/%s w=%d seed=%d %s policy=%s depth=%d producers=%d×%d panic1/%d deadline1/%d stall1/%d burst=%d",
		m.Variant, m.Workers, m.Seed, chaosLabel(m.Chaos), sc.policy, sc.depth,
		sc.producers, sc.perProd, sc.panicEvery, sc.deadlineEvery, sc.stallEvery, sc.burst)
}

// tortureSink keeps the service-trial spin work observable.
var tortureSink atomic.Int64

func spinWork(iters int) int {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return int(x & 0xff)
}

// runServiceTrial soaks one service-mode configuration: concurrent
// producers submit fork/join tasks with mixed deadlines, priorities and
// planted top-level panics into a serving runtime; some submissions are
// deliberately left in flight when Close drains. Afterwards every
// future must be resolved and the scheduler quiescent: tokens conserved,
// deques empty, no leaked vessels/stacks/scopes, and the admission
// accounting balanced. Service trials are wall-clock driven (external
// arrivals are not replayable), so failures are reported by seed rather
// than captured as schedule bundles.
func runServiceTrial(m replay.Meta, sc serviceSpec) (failure string) {
	m.TimeoutMS = 0 // deadlines are per-submission here
	cfg, err := buildConfig(m)
	if err != nil {
		return "config: " + err.Error()
	}
	rt, err := sched.New(cfg)
	if err != nil {
		return "config: " + err.Error()
	}
	defer rt.Close()
	if err := rt.StartService(sched.ServiceConfig{
		QueueDepth: sc.depth, Policy: sc.policy, DrainTimeout: 30 * time.Second,
	}); err != nil {
		return "config: " + err.Error()
	}

	task := func(c api.Ctx) {
		s := c.Scope()
		var a, b int
		s.Spawn(func(api.Ctx) { a = spinWork(256) })
		s.Spawn(func(api.Ctx) { b = spinWork(256) })
		d := spinWork(256)
		s.Sync()
		tortureSink.Add(int64(a + b + d))
	}
	// stallTask plants an application-level mid-strand stall: a spawned
	// strand sleeps while holding its worker token, exactly the fault
	// stall recovery (Config.StallThreshold) exists to survive. When the
	// trial arms recovery, these sleeps drive seize/supplement cycles
	// concurrently with panics, deadlines and admission chaos.
	stallTask := func(c api.Ctx) {
		s := c.Scope()
		var a, b int
		s.Spawn(func(api.Ctx) { time.Sleep(2 * time.Millisecond); a = spinWork(256) })
		s.Spawn(func(api.Ctx) { b = spinWork(256) })
		d := spinWork(256)
		s.Sync()
		tortureSink.Add(int64(a + b + d))
	}
	// Top-level only: a panic inside an open scope legitimately reports
	// the scope as leaked, which would drown the leak invariant below.
	panicTask := func(api.Ctx) { panic("torture: planted submission panic") }

	// A submission future may legally resolve to any of these.
	okOutcome := func(err error) bool {
		return err == nil ||
			errors.Is(err, sched.ErrShed) ||
			errors.Is(err, sched.ErrDrainForced) ||
			errors.Is(err, context.DeadlineExceeded) ||
			errors.As(err, new(*api.StrandPanic))
	}

	errCh := make(chan string, sc.producers)
	var wg sync.WaitGroup
	for p := 0; p < sc.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			subs := make([]*sched.Submission, 0, sc.perProd)
			for i := 0; i < sc.perProd; i++ {
				n := p*sc.perProd + i
				t := task
				if sc.stallEvery > 0 && n%sc.stallEvery == 0 {
					t = stallTask
				}
				if sc.panicEvery > 0 && n%sc.panicEvery == 0 {
					t = panicTask
				}
				var opts sched.SubmitOpts
				if sc.deadlineEvery > 0 && n%sc.deadlineEvery == 0 {
					// 0–3ms: some expire in the queue, some mid-flight.
					opts.Deadline = time.Now().Add(time.Duration(n%4) * time.Millisecond)
				}
				if sc.prioEvery > 0 && n%sc.prioEvery == 0 {
					opts.Priority = 1
				}
				sub, err := rt.Submit(t, opts)
				if err != nil {
					// Legal refusals: overload (policy or chaos), and a
					// Block-policy wait outlived by the submission's own
					// deadline.
					if errors.Is(err, sched.ErrOverloaded) ||
						errors.Is(err, context.DeadlineExceeded) {
						continue
					}
					errCh <- "submit: unexpected error " + err.Error()
					return
				}
				subs = append(subs, sub)
			}
			for _, sub := range subs {
				if werr := sub.Wait(); !okOutcome(werr) {
					errCh <- fmt.Sprintf("outcome: unexpected submission error %v", werr)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	select {
	case f := <-errCh:
		return f
	default:
	}

	// Leave a burst in flight and drain through Close: every future must
	// still resolve (completed, shed, or force-cancelled — never lost).
	burst := make([]*sched.Submission, 0, sc.burst)
	for i := 0; i < sc.burst; i++ {
		sub, err := rt.Submit(task, sched.SubmitOpts{})
		if err != nil {
			continue
		}
		burst = append(burst, sub)
	}
	rt.Close()
	for i, sub := range burst {
		select {
		case <-sub.Done():
		default:
			return fmt.Sprintf("drain: burst submission %d unresolved after Close", i)
		}
		if werr := sub.Err(); !okOutcome(werr) {
			return fmt.Sprintf("outcome: burst submission %d resolved with unexpected error %v", i, werr)
		}
	}

	// Quiescence and conservation after drain, over every slot the run
	// could schedule on (supplements included).
	if left := rt.DebugTokensLeft(); left != 0 {
		return fmt.Sprintf("tokens: %d tokens unaccounted after drain", left)
	}
	for w := 0; w < rt.DebugSlots(); w++ {
		if n := rt.DebugDequeSize(w); n != 0 {
			return fmt.Sprintf("quiescence: deque %d holds %d continuations after drain", w, n)
		}
	}
	st := rt.Stats()
	if st.WorkersSupplemented != st.SupplementsRetired {
		return fmt.Sprintf("supplement-leak: %d supplements dispatched, %d retired",
			st.WorkersSupplemented, st.SupplementsRetired)
	}
	if st.VesselsLeaked != 0 {
		return fmt.Sprintf("vessel-leak: %d vessels never returned to a free list", st.VesselsLeaked)
	}
	if st.StacksLeaked != 0 {
		return fmt.Sprintf("stack-leak: %d stacks unaccounted", st.StacksLeaked)
	}
	if st.ScopesLeaked != 0 {
		return fmt.Sprintf("scope-leak: %d scopes abandoned", st.ScopesLeaked)
	}
	if ss, ok := rt.ServiceStats(); ok {
		if ss.Queued != 0 || ss.InFlight != 0 {
			return fmt.Sprintf("drain: %d queued, %d in flight after Close", ss.Queued, ss.InFlight)
		}
		if got := ss.Completed + ss.Panicked + ss.Cancelled + ss.Shed; got != ss.Admitted {
			return fmt.Sprintf("accounting: admitted %d != completed %d + panicked %d + cancelled %d + shed %d",
				ss.Admitted, ss.Completed, ss.Panicked, ss.Cancelled, ss.Shed)
		}
	}
	return ""
}

// failureClass is the stable prefix of a failure string, used to decide
// whether a rerun reproduced "the same" failure (details like leak
// counts may vary across multi-worker schedules).
func failureClass(f string) string {
	if i := strings.IndexByte(f, ':'); i >= 0 {
		return f[:i]
	}
	return f
}

// reproduces reports whether the trial still fails with the same class,
// giving multi-worker trials a few attempts (their schedules are only
// reproduced best-effort).
func reproduces(m replay.Meta, class string, ringCap int) bool {
	attempts := 1
	if m.Workers > 1 {
		attempts = 3
	}
	for i := 0; i < attempts; i++ {
		rec := replay.NewRecorder(recSlots(m), ringCap)
		if f := runTrial(m, rec, nil); failureClass(f) == class {
			return true
		}
	}
	return false
}

// shrink reduces a failing trial toward a minimal one that still fails
// with the same class: fewer workers, no deadline, no budgets, lower
// chaos rates. Each reduction is kept only if the failure survives it.
// The search is a bounded fixed-point pass over the reduction list.
func shrink(m replay.Meta, class string, ringCap int, verbose bool) replay.Meta {
	budget := 64 // total candidate reruns
	try := func(cand replay.Meta, what string) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if reproduces(cand, class, ringCap) {
			if verbose {
				fmt.Printf("  shrink: kept %s\n", what)
			}
			return true
		}
		return false
	}
	for changed := true; changed && budget > 0; {
		changed = false
		if m.Workers > 1 {
			cand := m
			cand.Workers = m.Workers / 2
			if try(cand, fmt.Sprintf("workers %d -> %d", m.Workers, cand.Workers)) {
				m = cand
				changed = true
			}
		}
		if m.TimeoutMS > 0 {
			cand := m
			cand.TimeoutMS = 0
			if try(cand, "deadline dropped") {
				m = cand
				changed = true
			}
		}
		if m.MaxVessels > 0 || m.SoftMaxVessels > 0 || m.MaxStacks > 0 {
			cand := m
			cand.MaxVessels, cand.SoftMaxVessels, cand.MaxStacks = 0, 0, 0
			if try(cand, "budgets dropped") {
				m = cand
				changed = true
			}
		}
		if m.ParkAfter != 0 || m.DequeCap != 0 {
			cand := m
			cand.ParkAfter, cand.DequeCap = 0, 0
			if try(cand, "park/deque knobs reset") {
				m = cand
				changed = true
			}
		}
		if m.StallThresholdUS > 0 {
			// Disarming recovery removes the supplement machinery from
			// the repro; a failure that survives was never about it.
			cand := m
			cand.StallThresholdUS, cand.MaxSupplements = 0, 0
			if try(cand, "stall recovery disarmed") {
				m = cand
				changed = true
			}
		}
		if m.Chaos != nil {
			// Try dropping each injection outright, then halving it.
			rates := []*int{
				&m.Chaos.StealDelay, &m.Chaos.StealFail, &m.Chaos.PopBottomDelay,
				&m.Chaos.SyncDelay, &m.Chaos.AllocFail, &m.Chaos.SyncVesselFail,
				&m.Chaos.LeakVessel, &m.Chaos.SubmitFail, &m.Chaos.StealInterest,
				&m.Chaos.StallWorker, &m.Chaos.SubmitLatency,
				&m.Chaos.AbortWait, &m.Chaos.WakeupDelay,
			}
			names := []string{"steal-delay", "steal-fail", "popbottom-delay",
				"sync-delay", "alloc-fail", "sync-vessel-fail", "leak-vessel",
				"submit-fail", "steal-interest", "stall-worker", "submit-latency",
				"abort-wait", "wakeup-delay"}
			for i, r := range rates {
				if *r == 0 {
					continue
				}
				cand := m
				cc := *m.Chaos
				cand.Chaos = &cc
				ccRates := []*int{
					&cc.StealDelay, &cc.StealFail, &cc.PopBottomDelay,
					&cc.SyncDelay, &cc.AllocFail, &cc.SyncVesselFail,
					&cc.LeakVessel, &cc.SubmitFail, &cc.StealInterest,
					&cc.StallWorker, &cc.SubmitLatency,
					&cc.AbortWait, &cc.WakeupDelay,
				}
				*ccRates[i] = 0
				if try(cand, "chaos "+names[i]+" dropped") {
					m = cand
					changed = true
					continue
				}
				if *r > 1 {
					*ccRates[i] = *r / 2
					if try(cand, "chaos "+names[i]+" halved") {
						m = cand
						changed = true
					}
				}
			}
			// Dropped rates leave their duration knobs inert; clear them
			// so the minimal bundle does not advertise dead injections.
			if m.Chaos.StallWorker == 0 {
				m.Chaos.StallForUS = 0
			}
			if m.Chaos.SubmitLatency == 0 {
				m.Chaos.SubmitLatencyForUS = 0
			}
			if allZero(m.Chaos) {
				m.Chaos = nil
			}
		}
	}
	return m
}

func allZero(c *replay.ChaosSpec) bool {
	return c.StealDelay == 0 && c.StealFail == 0 && c.PopBottomDelay == 0 &&
		c.SyncDelay == 0 && c.AllocFail == 0 && c.SyncVesselFail == 0 &&
		c.LeakVessel == 0 && c.SubmitFail == 0 && c.StealInterest == 0 &&
		c.StallWorker == 0 && c.SubmitLatency == 0 &&
		c.AbortWait == 0 && c.WakeupDelay == 0
}

// captureFailure re-runs a failing trial with a fresh recorder, writes
// the repro bundle, and confirms the bundle replays to the same failure
// class. Returns the bundle path ("" if the failure evaporated).
func captureFailure(m replay.Meta, class, dir string, ringCap int, suffix string) (string, error) {
	rec := replay.NewRecorder(recSlots(m), ringCap)
	f := runTrial(m, rec, nil)
	if failureClass(f) != class {
		// Flaky beyond the recorder's reach; try a couple more times.
		for i := 0; i < 2 && failureClass(f) != class; i++ {
			rec = replay.NewRecorder(recSlots(m), ringCap)
			f = runTrial(m, rec, nil)
		}
		if failureClass(f) != class {
			return "", nil
		}
	}
	m.Tool = "nowa-torture"
	m.Scale = "test"
	m.Failure = f
	log := rec.Snapshot()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-%s-w%d-s%d%s.bundle", m.Kernel, m.Variant, m.Workers, m.Seed, suffix)
	path := filepath.Join(dir, name)
	if err := replay.SaveBundle(path, m, log); err != nil {
		return "", err
	}
	// Confirm the bundle drives a rerun to the same failure class.
	if rf := runTrial(m, nil, log); failureClass(rf) == class {
		fmt.Printf("  bundle %s replays to the same failure (%s)\n", path, failureClass(rf))
	} else {
		fmt.Printf("  warning: bundle %s replayed to %q, captured %q\n", path, rf, f)
	}
	return path, nil
}

type soakConfig struct {
	duration   time.Duration
	seed       int64
	out        string
	kernels    []string
	variants   []string
	chaos      []string
	maxWorkers int
	ringCap    int
	service    bool
	verbose    bool
}

// splitmix64 steps the trial-matrix RNG.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosClasses is the trial-matrix chaos vocabulary, selectable with
// the -chaos flag.
var chaosClasses = []string{"off", "light", "heavy", "promote", "stall", "abort"}

// drawChaos builds one chaos class's injection spec. Chaos.LeakVessel
// stays zero in every class by design: it is the planted bug, exercised
// only by -selftest, and arming it in the soak would make every trial
// fail.
func drawChaos(class string, rng *uint64) *replay.ChaosSpec {
	seed := func() int64 { return int64(splitmix64(rng)%(1<<31) + 1) }
	switch class {
	case "off":
		return nil
	case "light":
		return &replay.ChaosSpec{
			Seed:      seed(),
			StealFail: 16, PopBottomDelay: 16, SyncDelay: 16,
			StealInterest: 16, DelaySpins: 2,
		}
	case "heavy":
		return &replay.ChaosSpec{
			Seed:       seed(),
			StealDelay: 64, StealFail: 128, PopBottomDelay: 128,
			SyncDelay: 128, AllocFail: 64, SyncVesselFail: 64,
			StealInterest: 128, DelaySpins: 4,
		}
	case "promote":
		// Promotion chaos: every lazy spawn is forced to promote
		// mid-inline-run, hammering the record state machine against the
		// same budget/deadline draws below. Serial equivalence and the
		// leak bars are checked by runTrial like any other trial.
		return &replay.ChaosSpec{
			Seed:          seed(),
			StealInterest: 1024, StealFail: 16, PopBottomDelay: 16,
			DelaySpins: 2,
		}
	case "stall":
		// Stall chaos: random strands pin their worker token for 2ms at
		// chaos sites, shrinking effective parallelism mid-run. Trials in
		// this class arm stall recovery (drawTrial), so every trial
		// exercises seize → supplement → retire alongside light steal
		// chaos, with conservation checked like any other trial.
		return &replay.ChaosSpec{
			Seed:        seed(),
			StallWorker: 48, StallForUS: 2000,
			StealFail: 16, DelaySpins: 2,
		}
	case "abort":
		// Abort chaos: external waits are force-aborted at chaos sites and
		// wakeups are delayed, racing WakeAborted against Wake in the cqs
		// cell CAS. Trials in this class run the blocking kernels
		// (drawTrial) so there are waiters to abort, and runTrial's wait
		// conservation bar catches any stranded or double-ended waiter.
		return &replay.ChaosSpec{
			Seed:      seed(),
			AbortWait: 96, WakeupDelay: 64,
			StealFail: 16, DelaySpins: 2,
		}
	}
	panic("unknown chaos class " + class)
}

// drawTrial picks one point in the trial matrix.
func drawTrial(c soakConfig, rng *uint64, n int) replay.Meta {
	pick := func(k int) int { return int(splitmix64(rng) % uint64(k)) }
	workersChoices := []int{1, 2, 4, c.maxWorkers}
	w := workersChoices[pick(len(workersChoices))]
	if w > c.maxWorkers {
		w = c.maxWorkers
	}
	if w < 1 {
		w = 1
	}
	m := replay.Meta{
		Tool:    "nowa-torture",
		Kernel:  c.kernels[pick(len(c.kernels))],
		Scale:   "test",
		Variant: c.variants[pick(len(c.variants))],
		Workers: w,
		Seed:    int64(n)*37 + int64(pick(1024)) + 1,
	}
	class := c.chaos[pick(len(c.chaos))]
	m.Chaos = drawChaos(class, rng)
	if class == "abort" {
		// Abort trials need waiters to abort: swap in a blocking kernel
		// and force eager spawns (the blocking kernels deadlock under lazy
		// spawns — a parked stage's unblocker is a later-spawned sibling).
		names := blockapps.BlockingNames()
		m.Kernel = names[pick(len(names))]
		m.SpawnEager = true
	}
	if class == "stall" {
		// Arm recovery well under the injected 2ms stall so every stall
		// that backs work up is seizable; sometimes cap the supplement
		// pool at one to cover the all-slots-busy stand-down path.
		m.StallThresholdUS = 500
		if pick(2) == 1 {
			m.MaxSupplements = 1
		}
	}
	if c.service && m.Chaos != nil {
		// Admission-time refusals only fire in service mode; batch
		// trials leave the rate zero so the shrinker has nothing bogus
		// to chew on.
		if m.Chaos.StealFail >= 128 {
			m.Chaos.SubmitFail = 128
		} else {
			m.Chaos.SubmitFail = 16
		}
		if class == "stall" {
			// Stalled service trials also jitter the admission path so
			// seizures race queued arrivals and slow submitters at once.
			m.Chaos.SubmitLatency = 16
			m.Chaos.SubmitLatencyForUS = 500
		}
	}
	switch pick(3) {
	case 1:
		m.MaxVessels = w + 2
	case 2:
		m.MaxVessels = 4 * w
		m.SoftMaxVessels = 2 * w
	}
	if pick(4) == 1 {
		m.MaxStacks = 4 * w
	}
	switch pick(4) {
	case 1:
		m.TimeoutMS = 1
	case 2:
		m.TimeoutMS = 5
	}
	if pick(4) == 1 {
		m.ParkAfter = 64
	}
	if class == "abort" {
		// Resource budgets can lawfully deadlock a blocking kernel: a hard
		// vessel budget makes PrepareWait keep the worker token (keepToken),
		// and a stack budget can park every strand that could free a stack.
		// Blocking trials drop them and lean on short deadlines instead, so
		// most trials cancel mid-churn with waiters in flight.
		m.MaxVessels, m.SoftMaxVessels, m.MaxStacks = 0, 0, 0
		if m.TimeoutMS == 0 && pick(2) == 1 {
			m.TimeoutMS = 1
		}
	}
	return m
}

// chaosLabel classifies a chaos spec back into its matrix class name.
func chaosLabel(c *replay.ChaosSpec) string {
	switch {
	case c == nil:
		return "chaos=off"
	case c.AbortWait > 0 || c.WakeupDelay > 0:
		return "chaos=abort"
	case c.StallWorker > 0:
		return "chaos=stall"
	case c.StealInterest >= 512:
		return "chaos=promote"
	case c.StealFail >= 128:
		return "chaos=heavy"
	default:
		return "chaos=light"
	}
}

func trialLabel(m replay.Meta) string {
	label := fmt.Sprintf("%s/%s w=%d seed=%d %s vessels=%d stacks=%d timeout=%dms",
		m.Kernel, m.Variant, m.Workers, m.Seed, chaosLabel(m.Chaos),
		m.MaxVessels, m.MaxStacks, m.TimeoutMS)
	if m.StallThresholdUS > 0 {
		label += fmt.Sprintf(" recovery=%dµs/sup%d", m.StallThresholdUS, m.MaxSupplements)
	}
	return label
}

func soak(c soakConfig) int {
	sort.Strings(c.kernels)
	for _, k := range c.kernels {
		if _, err := blockapps.ByName(k, apps.Test); err != nil {
			fmt.Fprintln(os.Stderr, "nowa-torture:", err)
			return 2
		}
	}
	for _, v := range c.variants {
		if _, err := variantConfig(v, 1); err != nil {
			fmt.Fprintln(os.Stderr, "nowa-torture:", err)
			return 2
		}
	}
	if len(c.chaos) == 0 {
		fmt.Fprintln(os.Stderr, "nowa-torture: empty -chaos class list")
		return 2
	}
	for _, cl := range c.chaos {
		ok := false
		for _, known := range chaosClasses {
			ok = ok || cl == known
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "nowa-torture: unknown chaos class %q (want %s)\n",
				cl, strings.Join(chaosClasses, ", "))
			return 2
		}
	}
	rng := uint64(c.seed)*0x9e3779b97f4a7c15 + 1
	deadline := time.Now().Add(c.duration)
	trials, failures := 0, 0
	var bundles []string
	for time.Now().Before(deadline) {
		if c.service {
			m := drawTrial(c, &rng, trials)
			sc := drawServiceSpec(&rng)
			if sc.stallEvery > 0 && m.StallThresholdUS == 0 {
				// Planted mid-strand stalls are the application-level
				// fault; arm recovery so they drive seize/supplement
				// cycles rather than just slow the trial down.
				m.StallThresholdUS = 500
			}
			trials++
			f := runServiceTrial(m, sc)
			if c.verbose {
				status := "ok"
				if f != "" {
					status = "FAIL " + f
				}
				fmt.Printf("trial %4d: %s: %s\n", trials, serviceLabel(m, sc), status)
			}
			if f != "" {
				failures++
				fmt.Printf("FAILURE in service trial %d (%s): %s\n", trials, serviceLabel(m, sc), f)
				fmt.Printf("  (service trials are wall-clock driven and not bundle-replayable; rerun with -service -seed %d)\n", c.seed)
			}
			continue
		}
		m := drawTrial(c, &rng, trials)
		trials++
		rec := replay.NewRecorder(recSlots(m), c.ringCap)
		f := runTrial(m, rec, nil)
		if c.verbose {
			status := "ok"
			if f != "" {
				status = "FAIL " + f
			}
			fmt.Printf("trial %4d: %s: %s\n", trials, trialLabel(m), status)
		}
		if f == "" {
			continue
		}
		failures++
		class := failureClass(f)
		fmt.Printf("FAILURE in trial %d (%s): %s\n", trials, trialLabel(m), f)
		path, err := captureFailure(m, class, c.out, c.ringCap, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "nowa-torture: writing bundle:", err)
		} else if path == "" {
			fmt.Println("  failure did not reproduce under recapture; not shrinking")
			continue
		} else {
			bundles = append(bundles, path)
		}
		min := shrink(m, class, c.ringCap, c.verbose)
		fmt.Printf("  shrunk to: %s\n", trialLabel(min))
		if minPath, err := captureFailure(min, class, c.out, c.ringCap, "-min"); err != nil {
			fmt.Fprintln(os.Stderr, "nowa-torture: writing minimal bundle:", err)
		} else if minPath != "" {
			bundles = append(bundles, minPath)
		}
	}
	fmt.Printf("nowa-torture: %d trials, %d failures in %v\n", trials, failures, c.duration)
	if failures > 0 {
		fmt.Println("repro bundles:")
		for _, b := range bundles {
			fmt.Println("  ", b)
		}
		return 1
	}
	return 0
}

// replayBundle loads a repro bundle and re-runs its trial with the
// captured schedule log driving the scheduler. Exit 0 iff the recorded
// failure class reproduces.
func replayBundle(path string, verbose bool) int {
	m, log, err := replay.LoadBundle(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowa-torture:", err)
		return 2
	}
	fmt.Printf("replaying %s: %s\n", path, trialLabel(m))
	if m.Failure != "" {
		fmt.Printf("  captured failure: %s\n", m.Failure)
	}
	if verbose && log.Workers() > 0 {
		evs := log.PerWorker[0]
		n := 16
		if len(evs) < n {
			n = len(evs)
		}
		fmt.Printf("  worker 0 schedule tail: %s\n", replay.FormatEvents(evs[len(evs)-n:]))
	}
	f := runTrial(m, nil, log)
	switch {
	case f == "" && m.Failure == "":
		fmt.Println("replay passed (bundle recorded no failure)")
		return 0
	case failureClass(f) == failureClass(m.Failure):
		fmt.Printf("reproduced: %s\n", f)
		return 0
	default:
		fmt.Printf("NOT reproduced: replay gave %q, bundle recorded %q\n", f, m.Failure)
		return 1
	}
}

// selfTest validates the whole pipeline against the planted
// Chaos.LeakVessel bug: the trial must fail, the capture must replay to
// the same failure, and the shrinker must keep a failing configuration.
func selfTest(out string, ringCap int) int {
	// StealInterest 1024 promotes every lazy spawn: without it a
	// single-worker trial runs everything inline under the default spawn
	// policy and never churns a vessel, so the planted leak cannot fire.
	m := replay.Meta{
		Tool: "nowa-torture", Kernel: "fib", Scale: "test", Variant: "nowa",
		Workers: 1, Seed: 7,
		Chaos: &replay.ChaosSpec{Seed: 11, LeakVessel: 24, StealInterest: 1024, DelaySpins: 1},
	}
	fmt.Printf("selftest trial: %s (planted leak-vessel bug armed)\n", trialLabel(m))
	f := runTrial(m, replay.NewRecorder(1, ringCap), nil)
	if failureClass(f) != "vessel-leak" {
		fmt.Printf("selftest FAILED: planted bug gave %q, want a vessel-leak\n", f)
		return 1
	}
	fmt.Printf("  trial fails as planted: %s\n", f)
	path, err := captureFailure(m, "vessel-leak", out, ringCap, "-selftest")
	if err != nil || path == "" {
		fmt.Printf("selftest FAILED: could not capture bundle (path=%q err=%v)\n", path, err)
		return 1
	}
	if rc := replayBundle(path, false); rc != 0 {
		fmt.Println("selftest FAILED: bundle did not replay to the captured failure")
		return 1
	}
	min := shrink(m, "vessel-leak", ringCap, true)
	if !reproduces(min, "vessel-leak", ringCap) {
		fmt.Println("selftest FAILED: shrunk trial no longer fails")
		return 1
	}
	if min.Chaos == nil || min.Chaos.LeakVessel == 0 {
		fmt.Println("selftest FAILED: shrinker dropped the injection that causes the failure")
		return 1
	}
	fmt.Printf("  shrunk to: %s (leak-vessel rate %d)\n", trialLabel(min), min.Chaos.LeakVessel)
	fmt.Println("selftest passed: capture, replay and shrink all work")
	return 0
}
