package nowa_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowa"
	"nowa/internal/api"
	"nowa/internal/chaos"
	"nowa/internal/sched"
)

// serveRT builds a small serving runtime for tests.
func serveRT(t *testing.T, cfg nowa.ServiceConfig) nowa.Runtime {
	t.Helper()
	rt := nowa.New(nowa.VariantNowa, 4)
	if err := nowa.StartService(rt, cfg); err != nil {
		t.Fatalf("StartService: %v", err)
	}
	return rt
}

// spinTask is a tiny fork/join computation so submissions exercise the
// scheduler, not just the queue.
func spinTask(out *atomic.Int64) func(nowa.Ctx) {
	return func(c nowa.Ctx) {
		var a, b int64
		s := c.Scope()
		s.Spawn(func(nowa.Ctx) { a = 1 })
		b = 1
		s.Sync()
		out.Add(a + b)
	}
}

func TestServiceSubmitBasic(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{})
	defer nowa.Close(rt)

	var sum atomic.Int64
	const n = 200
	subs := make([]*nowa.Submission, 0, n)
	for i := 0; i < n; i++ {
		sub, err := nowa.Submit(rt, spinTask(&sum), nowa.SubmitOpts{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		subs = append(subs, sub)
	}
	for i, sub := range subs {
		if err := sub.Wait(); err != nil {
			t.Fatalf("submission %d failed: %v", i, err)
		}
	}
	if got := sum.Load(); got != 2*n {
		t.Fatalf("task work lost: sum = %d, want %d", got, 2*n)
	}
	st, ok := nowa.ServiceInfo(rt)
	if !ok {
		t.Fatal("ServiceInfo: not serving")
	}
	if st.Completed != n || st.Admitted != n {
		t.Fatalf("stats: %+v, want %d admitted and completed", st, n)
	}
}

func TestServiceSubmitConcurrent(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{QueueDepth: 64})
	defer nowa.Close(rt)

	var sum atomic.Int64
	const producers, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sub, err := nowa.Submit(rt, spinTask(&sum), nowa.SubmitOpts{})
				if err != nil {
					errs <- err
					return
				}
				if err := sub.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("producer failed: %v", err)
	}
	if got := sum.Load(); got != 2*producers*each {
		t.Fatalf("sum = %d, want %d", got, 2*producers*each)
	}
}

func TestServiceNotServing(t *testing.T) {
	rt := nowa.New(nowa.VariantNowa, 2)
	defer nowa.Close(rt)
	if _, err := nowa.Submit(rt, func(nowa.Ctx) {}, nowa.SubmitOpts{}); !errors.Is(err, nowa.ErrNotServing) {
		t.Fatalf("Submit before StartService: err = %v, want ErrNotServing", err)
	}
	// Comparators without a vessel model can never serve.
	tbb := nowa.New(nowa.VariantTBB, 2)
	if err := nowa.StartService(tbb, nowa.ServiceConfig{}); !errors.Is(err, nowa.ErrNotServing) {
		t.Fatalf("StartService on TBB: err = %v, want ErrNotServing", err)
	}
}

func TestServiceRunRejected(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{})
	defer nowa.Close(rt)
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a serving runtime did not panic")
		}
	}()
	rt.Run(func(nowa.Ctx) {})
}

// blockNSubmissions fills the service with tasks that park until
// release is closed, guaranteeing the queue backs up behind them.
func blockNSubmissions(t *testing.T, rt nowa.Runtime, n int, release chan struct{}) []*nowa.Submission {
	t.Helper()
	var started sync.WaitGroup
	subs := make([]*nowa.Submission, 0, n)
	for i := 0; i < n; i++ {
		started.Add(1)
		sub, err := nowa.Submit(rt, func(c nowa.Ctx) {
			started.Done()
			<-release
		}, nowa.SubmitOpts{})
		if err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
		subs = append(subs, sub)
	}
	started.Wait()
	return subs
}

func TestServiceOverloadFailFast(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{QueueDepth: 4, Policy: nowa.OverloadFailFast})
	defer nowa.Close(rt)

	release := make(chan struct{})
	// Block every worker, then fill the queue: later submissions must be
	// refused with a retry hint.
	blockers := blockNSubmissions(t, rt, 4, release)
	queued := make([]*nowa.Submission, 0, 4)
	for i := 0; i < 4; i++ {
		sub, err := nowa.Submit(rt, func(nowa.Ctx) {}, nowa.SubmitOpts{})
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		queued = append(queued, sub)
	}
	_, err := nowa.Submit(rt, func(nowa.Ctx) {}, nowa.SubmitOpts{})
	if !errors.Is(err, nowa.ErrOverloaded) {
		t.Fatalf("overflow Submit: err = %v, want ErrOverloaded", err)
	}
	var oe *sched.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow Submit: err %T does not carry a retry hint", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	close(release)
	for _, sub := range append(blockers, queued...) {
		if err := sub.Wait(); err != nil {
			t.Fatalf("admitted submission failed: %v", err)
		}
	}
	st, _ := nowa.ServiceInfo(rt)
	if st.Rejected == 0 {
		t.Fatalf("stats did not count the rejection: %+v", st)
	}
}

func TestServiceOverloadShed(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{QueueDepth: 4, Policy: nowa.OverloadShed})
	defer nowa.Close(rt)

	release := make(chan struct{})
	blockers := blockNSubmissions(t, rt, 4, release)
	var ran atomic.Int64
	first := make([]*nowa.Submission, 0, 4)
	for i := 0; i < 4; i++ {
		sub, err := nowa.Submit(rt, func(nowa.Ctx) { ran.Add(1) }, nowa.SubmitOpts{})
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		first = append(first, sub)
	}
	// The queue is full; each further submission must evict the oldest.
	later := make([]*nowa.Submission, 0, 4)
	for i := 0; i < 4; i++ {
		sub, err := nowa.Submit(rt, func(nowa.Ctx) { ran.Add(1) }, nowa.SubmitOpts{})
		if err != nil {
			t.Fatalf("shed-admit %d: %v", i, err)
		}
		later = append(later, sub)
	}
	shedCount := 0
	for _, sub := range first {
		err := sub.Wait() // all are resolved: shed now or run after release
		if err == nil {
			continue
		}
		if !errors.Is(err, nowa.ErrShed) || !errors.Is(err, nowa.ErrOverloaded) {
			t.Fatalf("victim error = %v, want ErrShed (wrapping ErrOverloaded)", err)
		}
		shedCount++
	}
	if shedCount != 4 {
		t.Fatalf("shed %d of the first batch, want all 4", shedCount)
	}
	close(release)
	for _, sub := range append(blockers, later...) {
		if err := sub.Wait(); err != nil {
			t.Fatalf("surviving submission failed: %v", err)
		}
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran = %d tasks, want exactly the 4 survivors", got)
	}
	st, _ := nowa.ServiceInfo(rt)
	if st.Shed != 4 {
		t.Fatalf("stats.Shed = %d, want 4 (%+v)", st.Shed, st)
	}
}

func TestServiceOverloadBlock(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{QueueDepth: 2, Policy: nowa.OverloadBlock})
	defer nowa.Close(rt)

	release := make(chan struct{})
	blockers := blockNSubmissions(t, rt, 4, release)
	for i := 0; i < 2; i++ {
		if _, err := nowa.Submit(rt, func(nowa.Ctx) {}, nowa.SubmitOpts{}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// Queue full: this Submit must block until capacity frees, then admit.
	unblocked := make(chan error, 1)
	go func() {
		sub, err := nowa.Submit(rt, func(nowa.Ctx) {}, nowa.SubmitOpts{})
		if err != nil {
			unblocked <- err
			return
		}
		unblocked <- sub.Wait()
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("Submit returned %v while the queue was full; Block must wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-unblocked; err != nil {
		t.Fatalf("blocked Submit failed after space freed: %v", err)
	}
	for _, sub := range blockers {
		if err := sub.Wait(); err != nil {
			t.Fatalf("blocker failed: %v", err)
		}
	}
}

func TestServiceOverloadBlockAbort(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{QueueDepth: 1, Policy: nowa.OverloadBlock})
	defer nowa.Close(rt)

	release := make(chan struct{})
	defer close(release)
	blockNSubmissions(t, rt, 4, release)
	if _, err := nowa.Submit(rt, func(nowa.Ctx) {}, nowa.SubmitOpts{}); err != nil {
		t.Fatalf("fill: %v", err)
	}
	// A blocked Submit must abort when its own context is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := nowa.SubmitCtx(rt, ctx, func(nowa.Ctx) {}, nowa.SubmitOpts{})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("aborted Submit: err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Submit did not abort on context cancel")
	}
}

func TestServiceSubmitDeadlineQueued(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{QueueDepth: 8})
	defer nowa.Close(rt)

	release := make(chan struct{})
	blockers := blockNSubmissions(t, rt, 4, release)
	var ran atomic.Bool
	sub, err := nowa.Submit(rt, func(nowa.Ctx) { ran.Store(true) },
		nowa.SubmitOpts{Deadline: time.Now().Add(30 * time.Millisecond)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Hold the workers well past the deadline, then let a token take the
	// expired submission.
	time.Sleep(100 * time.Millisecond)
	close(release)
	werr := sub.Wait()
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("expired submission: err = %v, want DeadlineExceeded", werr)
	}
	if ran.Load() {
		t.Fatal("expired submission ran anyway")
	}
	for _, b := range blockers {
		if err := b.Wait(); err != nil {
			t.Fatalf("blocker failed: %v", err)
		}
	}
	st, _ := nowa.ServiceInfo(rt)
	if st.Expired != 1 {
		t.Fatalf("stats.Expired = %d, want 1 (%+v)", st.Expired, st)
	}
}

func TestServiceSubmitCancelMidFlight(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{})
	defer nowa.Close(rt)

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	sub, err := nowa.SubmitCtx(rt, ctx, func(c nowa.Ctx) {
		close(started)
		<-c.Done() // cooperative: observe the submission's own context
	}, nowa.SubmitOpts{})
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	<-started
	cancel()
	if werr := sub.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled submission: err = %v, want context.Canceled", werr)
	}
	st, _ := nowa.ServiceInfo(rt)
	if st.Cancelled != 1 {
		t.Fatalf("stats.Cancelled = %d, want 1 (%+v)", st.Cancelled, st)
	}
	if got := st.Completed + st.Panicked + st.Cancelled + st.Shed; got != st.Admitted {
		t.Fatalf("admitted %d, accounted %d: the cancelled submission broke the admission identity (%+v)",
			st.Admitted, got, st)
	}
}

// TestServicePanicIsolation is the satellite test: two concurrent
// submissions, one panics across several strands — the sibling completes
// untouched, Suppressed counts stay per-submission, and the runtime's
// idle leak reconciliation stays clean after Close.
func TestServicePanicIsolation(t *testing.T) {
	rt := nowa.New(nowa.VariantNowa, 4)
	if err := nowa.StartService(rt, nowa.ServiceConfig{}); err != nil {
		t.Fatalf("StartService: %v", err)
	}

	proceed := make(chan struct{})
	bad, err := nowa.Submit(rt, func(c nowa.Ctx) {
		<-proceed
		s := c.Scope()
		// Three strands of this submission panic: one survivor plus two
		// suppressed. The scope is synced before the parent's own panic so
		// no scope is abandoned non-quiescent.
		s.Spawn(func(nowa.Ctx) { panic("boom-child-1") })
		s.Spawn(func(nowa.Ctx) { panic("boom-child-2") })
		s.Sync()
		panic("boom-parent")
	}, nowa.SubmitOpts{})
	if err != nil {
		t.Fatalf("Submit bad: %v", err)
	}
	var siblingDone atomic.Bool
	good, err := nowa.Submit(rt, func(c nowa.Ctx) {
		<-proceed
		var a int
		s := c.Scope()
		s.Spawn(func(nowa.Ctx) { a = 21 })
		b := 21
		s.Sync()
		if a+b == 42 {
			siblingDone.Store(true)
		}
	}, nowa.SubmitOpts{})
	if err != nil {
		t.Fatalf("Submit good: %v", err)
	}
	close(proceed)

	if gerr := good.Wait(); gerr != nil {
		t.Fatalf("sibling poisoned by the panicking submission: %v", gerr)
	}
	if !siblingDone.Load() {
		t.Fatal("sibling did not finish its work")
	}
	berr := bad.Wait()
	var sp *api.StrandPanic
	if !errors.As(berr, &sp) {
		t.Fatalf("panicking submission: err = %v (%T), want *api.StrandPanic", berr, berr)
	}
	if sp.Suppressed != 2 {
		t.Fatalf("Suppressed = %d, want 2 (per-submission tally)", sp.Suppressed)
	}

	st, _ := nowa.ServiceInfo(rt)
	if st.Panicked != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v, want exactly 1 panicked and 1 completed", st)
	}
	nowa.Close(rt)
	res, ok := nowa.Resources(rt)
	if !ok {
		t.Fatal("Resources: no vessel model?")
	}
	if res.VesselsLeaked != 0 || res.StacksLeaked != 0 || res.ScopesLeaked != 0 {
		t.Fatalf("leak reconciliation after panic: %+v, want zero leaks", res)
	}
}

func TestServiceCloseDrains(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{QueueDepth: 64})

	var done atomic.Int64
	const n = 32
	subs := make([]*nowa.Submission, 0, n)
	for i := 0; i < n; i++ {
		sub, err := nowa.Submit(rt, func(c nowa.Ctx) {
			time.Sleep(time.Millisecond)
			var a int64
			s := c.Scope()
			s.Spawn(func(nowa.Ctx) { a = 1 })
			s.Sync()
			done.Add(1 + a - 1)
		}, nowa.SubmitOpts{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		subs = append(subs, sub)
	}
	nowa.Close(rt) // graceful: every queued and in-flight submission completes
	if got := done.Load(); got != n {
		t.Fatalf("drained %d submissions, want %d", got, n)
	}
	for i, sub := range subs {
		select {
		case <-sub.Done():
		default:
			t.Fatalf("submission %d unresolved after Close", i)
		}
		if err := sub.Err(); err != nil {
			t.Fatalf("submission %d failed during drain: %v", i, err)
		}
	}
	if _, err := nowa.Submit(rt, func(nowa.Ctx) {}, nowa.SubmitOpts{}); !errors.Is(err, nowa.ErrServiceClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrServiceClosed", err)
	}
	res, _ := nowa.Resources(rt)
	if res.VesselsLeaked != 0 || res.StacksLeaked != 0 {
		t.Fatalf("leaks after drain: %+v", res)
	}
}

func TestServiceCloseDrainForced(t *testing.T) {
	rt := serveRT(t, nowa.ServiceConfig{DrainTimeout: 50 * time.Millisecond})

	started := make(chan struct{})
	sub, err := nowa.Submit(rt, func(c nowa.Ctx) {
		close(started)
		<-c.Done() // refuses to finish until force-cancelled
	}, nowa.SubmitOpts{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	closed := make(chan struct{})
	go func() { nowa.Close(rt); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: drain deadline did not force-cancel")
	}
	if werr := sub.Wait(); !errors.Is(werr, nowa.ErrDrainForced) {
		t.Fatalf("force-cancelled submission: err = %v, want ErrDrainForced", werr)
	}
}

// TestChaosSubmitFail exercises the admission-time injection: refusals
// look exactly like FailFast overload, and the service stays sound.
func TestChaosSubmitFail(t *testing.T) {
	srt := sched.MustNew(sched.Config{
		Name: "chaos-submit", Workers: 2,
		Chaos: &chaos.Chaos{Seed: 7, SubmitFail: 512},
	})
	if err := srt.StartService(sched.ServiceConfig{QueueDepth: 16}); err != nil {
		t.Fatalf("StartService: %v", err)
	}
	var ran atomic.Int64
	okN, failN := 0, 0
	for i := 0; i < 200; i++ {
		sub, err := srt.SubmitCtxOpts(nil, func(api.Ctx) { ran.Add(1) }, sched.SubmitOpts{})
		if err != nil {
			if !errors.Is(err, sched.ErrOverloaded) {
				t.Fatalf("chaos refusal has wrong shape: %v", err)
			}
			failN++
			continue
		}
		if werr := sub.Wait(); werr != nil {
			t.Fatalf("admitted submission failed: %v", werr)
		}
		okN++
	}
	if failN == 0 || okN == 0 {
		t.Fatalf("SubmitFail=512 should refuse roughly half: ok=%d fail=%d", okN, failN)
	}
	if int(ran.Load()) != okN {
		t.Fatalf("ran %d tasks, want %d (one per admission)", ran.Load(), okN)
	}
	srt.Close()
	if lk := srt.Stats(); lk.VesselsLeaked != 0 {
		t.Fatalf("leaks under chaos: %+v", lk)
	}
}

// TestServiceReuseAfterVariants sanity-checks every vessel variant can
// serve a short burst and close cleanly.
func TestServiceAllVariants(t *testing.T) {
	for _, v := range nowa.Variants() {
		rt := nowa.New(v, 2)
		if _, ok := nowa.Resources(rt); !ok { // the comparators cannot serve
			nowa.Close(rt)
			continue
		}
		t.Run(v.String(), func(t *testing.T) {
			if err := nowa.StartService(rt, nowa.ServiceConfig{}); err != nil {
				t.Fatalf("StartService: %v", err)
			}
			var sum atomic.Int64
			subs := make([]*nowa.Submission, 0, 20)
			for i := 0; i < 20; i++ {
				sub, err := nowa.Submit(rt, spinTask(&sum), nowa.SubmitOpts{})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				subs = append(subs, sub)
			}
			for _, sub := range subs {
				if err := sub.Wait(); err != nil {
					t.Fatalf("submission failed: %v", err)
				}
			}
			nowa.Close(rt)
			if got := sum.Load(); got != 40 {
				t.Fatalf("sum = %d, want 40", got)
			}
		})
	}
}

// TestServiceHeldStacksBoundedByLiveSubmissions: each taken submission is
// charged one pool stack, and a steal inside it one more, and each must
// come back when the strand it stands for has finished — the service run
// itself never ends while it serves. A serving runtime that completes
// submissions one at a time therefore holds a bounded number of stacks,
// and its heap does not grow with the number served.
func TestServiceHeldStacksBoundedByLiveSubmissions(t *testing.T) {
	const n = 100_000
	srt := sched.MustNew(sched.Config{Name: "serve-stacks", Workers: 2})
	if err := srt.StartService(sched.ServiceConfig{}); err != nil {
		t.Fatalf("StartService: %v", err)
	}
	serve := func(k int) {
		for i := 0; i < k; i++ {
			sub, err := srt.SubmitCtxOpts(nil, func(api.Ctx) {}, sched.SubmitOpts{})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if err := sub.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	serve(1000) // warm the vessel, stack and submission pools
	before := heap()
	serve(n)
	perSub := float64(heap()-before) / n
	live := srt.Stats().StacksLive
	srt.Close()
	if perSub >= 32 {
		t.Errorf("heap grew %.1f B per completed submission over %d, want < 32", perSub, n)
	}
	if live > 64 {
		t.Errorf("%d stacks live after %d one-at-a-time submissions", live, n)
	}
	if st := srt.Stats(); st.StacksLeaked != 0 || st.VesselsLeaked != 0 {
		t.Errorf("leaks after Close: stacks %d, vessels %d", st.StacksLeaked, st.VesselsLeaked)
	}
}
