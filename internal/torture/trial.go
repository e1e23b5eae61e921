package torture

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/blockapps"
	"nowa/internal/loadgen"
	"nowa/internal/replay"
	"nowa/internal/sched"
)

// buildConfig turns a trial description (which doubles as the bundle
// metadata) into a runnable scheduler configuration.
func buildConfig(m replay.Meta) (sched.Config, error) {
	cfg, err := sched.VariantConfig(m.Variant, m.Workers)
	if err != nil {
		return sched.Config{}, err
	}
	cfg.Seed = m.Seed
	if m.SpawnEager {
		cfg.Spawn = sched.SpawnEager
	}
	cfg.Chaos = m.Chaos
	cfg.StallThreshold = time.Duration(m.StallThresholdUS) * time.Microsecond
	return cfg, nil
}

// label describes a trial in one line; sc is nil for a batch trial.
func label(m replay.Meta, sc *serviceSpec) string {
	if sc != nil {
		return fmt.Sprintf("service/%s w=%d seed=%d chaos=%s policy=%s depth=%d producers=%d×%d panic1/%d deadline1/%d stall1/%d burst=%d",
			m.Variant, m.Workers, m.Seed, m.Class, sc.policy, sc.depth,
			sc.producers, sc.perProd, sc.panicEvery, sc.deadlineEvery, sc.stallEvery, sc.burst)
	}
	l := fmt.Sprintf("%s/%s w=%d seed=%d chaos=%s timeout=%dms",
		m.Kernel, m.Variant, m.Workers, m.Seed, m.Class, m.TimeoutMS)
	if m.StallThresholdUS > 0 {
		l += fmt.Sprintf(" recovery=%dµs", m.StallThresholdUS)
	}
	return l
}

// run executes one trial — a batch run of m's kernel, or with sc a
// service soak — and checks every invariant, returning "" on a clean
// pass or a "class: detail" failure string. A positive ringCap attaches
// (and returns) a recorder as wide as the filled configuration's slots:
// supplements record on extended ones.
func run(m replay.Meta, sc *serviceSpec, ringCap int) (failure string, rec *replay.Recorder) {
	cfg, err := buildConfig(m)
	slots, serr := cfg.Slots()
	if err = errors.Join(err, serr); err != nil {
		return "config: " + err.Error(), nil
	}
	if ringCap > 0 {
		rec = replay.NewRecorder(slots, ringCap)
	}
	cfg.Record = rec
	rt, err := sched.New(cfg)
	if err != nil {
		return "config: " + err.Error(), nil
	}
	defer rt.Close()
	if sc != nil {
		failure = serve(rt, sc)
	} else {
		failure = batch(rt, m)
	}
	if failure == "" {
		failure = checkAfter(rt)
	}
	return failure, rec
}

// checkAfter is the one post-run check of both trial kinds: the idle
// invariants, spawn conservation included — under a deadline too:
// cancellation must abort waiters, never strand them, and never unbalance
// the counters — then the service accounting.
func checkAfter(rt *sched.Runtime) string {
	if err := rt.CheckIdle(); err != nil {
		return err.Error()
	}
	if ss, ok := rt.ServiceStats(); ok {
		// Once the gauges say idle the tallies are final (ServiceStats).
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

// batch runs m's kernel once, under m's deadline if it has one. Serial
// equivalence: a run that was not cancelled must compute the serial
// answer, whatever the schedule and the (sound) chaos did.
func batch(rt *sched.Runtime, m replay.Meta) (failure string) {
	app, err := blockapps.ByName(m.Kernel, apps.Test)
	if err != nil {
		return "config: " + err.Error()
	}
	app.Prepare()
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Sprintf("panic: %v", r)
		}
	}()
	if m.TimeoutMS > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(m.TimeoutMS)*time.Millisecond)
		defer cancel()
		if rt.RunCtx(ctx, app.Run) != nil {
			return ""
		}
	} else {
		rt.Run(app.Run)
	}
	if err := app.Verify(); err != nil {
		return "verify: " + err.Error()
	}
	return ""
}

// serviceSpec is one service trial's shape: the admission configuration
// plus the submission mix the producers generate.
type serviceSpec struct {
	policy        sched.OverloadPolicy
	depth         int
	producers     int
	perProd       int
	panicEvery    int // every Nth submission panics at top level (0 = never)
	deadlineEvery int // every Nth submission carries a 0–3ms deadline
	stallEvery    int // every Nth submission sleeps 2ms mid-strand (0 = never)
	burst         int // submissions left in flight when Close drains
}

func drawServiceSpec(rng *rand.Rand) *serviceSpec {
	pick := rng.Intn
	return &serviceSpec{
		policy:        []sched.OverloadPolicy{sched.OverloadBlock, sched.OverloadFailFast, sched.OverloadShed}[pick(3)],
		depth:         []int{1, 4, 16, 64}[pick(4)],
		producers:     2 + pick(6),
		perProd:       20 + pick(60),
		panicEvery:    []int{0, 5, 9}[pick(3)],
		deadlineEvery: []int{0, 3, 7}[pick(3)],
		stallEvery:    []int{0, 0, 7}[pick(3)],
		burst:         pick(24),
	}
}

// serve soaks one service-mode configuration: concurrent producers
// submit fork/join tasks with mixed deadlines and planted top-level
// panics, and a burst is left in flight for Close to drain.
// Every future must resolve, to a legal outcome. Arrivals are wall-clock
// driven, hence not replayable: failures are reported by seed.
func serve(rt *sched.Runtime, sc *serviceSpec) string {
	if err := rt.StartService(sched.ServiceConfig{
		QueueDepth: sc.depth, Policy: sc.policy, DrainTimeout: 30 * time.Second,
	}); err != nil {
		return "config: " + err.Error()
	}
	task := loadgen.SpinTask(256) // two spawned strands and the continuation, a few hundred ns each
	// The application-level stall: a strand sleeps holding its worker
	// token, which with recovery armed drives seize/supplement cycles
	// concurrently with panics, deadlines and admission chaos.
	stallTask := func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(api.Ctx) { time.Sleep(2 * time.Millisecond) })
		task(c)
		s.Sync()
	}
	// Top-level only: a panic inside an open scope legitimately reports
	// the scope as leaked, which would drown the leak invariant.
	panicTask := func(api.Ctx) { panic("torture: planted submission panic") }

	// One list of admitted submissions per producer, the burst's last.
	admitted := make([][]*sched.Submission, sc.producers+1)
	refused := make([]error, sc.producers) // a refusal no policy allows
	var wg sync.WaitGroup
	for p := range refused {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sc.perProd && refused[p] == nil; i++ {
				n := p*sc.perProd + i
				every := func(k int) bool { return k > 0 && n%k == 0 }
				t := task
				if every(sc.stallEvery) {
					t = stallTask
				}
				if every(sc.panicEvery) {
					t = panicTask
				}
				var opts sched.SubmitOpts
				if every(sc.deadlineEvery) {
					// 0–3ms: some expire in the queue, some mid-flight.
					opts.Deadline = time.Now().Add(time.Duration(n%4) * time.Millisecond)
				}
				sub, err := rt.Submit(t, opts)
				switch {
				case err == nil:
					admitted[p] = append(admitted[p], sub)
				case errors.Is(err, sched.ErrOverloaded), errors.Is(err, context.DeadlineExceeded):
					// Legal refusals: overload (policy or chaos), and a
					// Block-policy wait outlived by the submission's own
					// deadline.
				default:
					refused[p] = err
				}
			}
			for _, sub := range admitted[p] {
				sub.Wait()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(refused...); err != nil {
		return "submit: unexpected error " + err.Error()
	}
	// Leave a burst in flight and drain through Close: every future must
	// still resolve (completed, shed, or force-cancelled — never lost).
	for i := 0; i < sc.burst; i++ {
		if sub, err := rt.Submit(task, sched.SubmitOpts{}); err == nil {
			admitted[sc.producers] = append(admitted[sc.producers], sub)
		}
	}
	rt.Close()
	for _, subs := range admitted {
		for _, sub := range subs {
			select {
			case <-sub.Done():
			default:
				return "drain: a submission is unresolved after Close"
			}
			// Legal outcomes: success, shed, a forced drain, the
			// submission's own deadline, its planted panic.
			if err := sub.Err(); err != nil && !errors.Is(err, sched.ErrShed) && !errors.Is(err, sched.ErrDrainForced) &&
				!errors.Is(err, context.DeadlineExceeded) && !errors.As(err, new(*api.StrandPanic)) {
				return fmt.Sprintf("outcome: a submission resolved with unexpected error %v", err)
			}
		}
	}
	return ""
}
