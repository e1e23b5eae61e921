package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/sched"
)

// flaky wraps a real serving runtime but refuses the first N admissions
// with an OverloadedError carrying a retry-after hint — deterministic
// congestion without having to saturate a real queue.
type flaky struct {
	rt *sched.Runtime

	mu       sync.Mutex
	refusals int
	hint     time.Duration
	attempts int
}

func (f *flaky) SubmitCtxOpts(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts) (*sched.Submission, error) {
	f.mu.Lock()
	f.attempts++
	if f.refusals > 0 {
		f.refusals--
		hint := f.hint
		f.mu.Unlock()
		return nil, &sched.OverloadedError{RetryAfter: hint}
	}
	f.mu.Unlock()
	return f.rt.SubmitCtxOpts(ctx, task, opts)
}

// serveRT builds a serving runtime for the tests.
func serveRT(t *testing.T, workers int) *sched.Runtime {
	t.Helper()
	rt := sched.NewNowa(workers)
	if err := rt.StartService(sched.ServiceConfig{QueueDepth: 64}); err != nil {
		rt.Close()
		t.Fatalf("StartService: %v", err)
	}
	return rt
}

func TestResilienceRetryAdmits(t *testing.T) {
	rt := serveRT(t, 2)
	defer rt.Close()
	f := &flaky{rt: rt, refusals: 2, hint: 10 * time.Millisecond}
	r := New(f, Policy{MaxAttempts: 3})

	var ran atomic.Int32
	begin := time.Now()
	out, err := r.Do(context.Background(), func(api.Ctx) { ran.Add(1) }, sched.SubmitOpts{})
	if err != nil {
		t.Fatalf("Do: %v (outcome %+v)", err, out)
	}
	if ran.Load() != 1 {
		t.Fatalf("task ran %d times, want 1", ran.Load())
	}
	if out.Attempts != 3 || out.Retries != 2 || out.Rejected != 2 || !out.Admitted {
		t.Fatalf("outcome %+v, want 3 attempts / 2 retries / 2 rejections / admitted", out)
	}
	// Two refusals each carried a 10ms hint that dominates the 0.5–1ms
	// exponential schedule; even with -20% jitter the waits sum past
	// 14ms. A faster finish means the hint was ignored.
	if elapsed := time.Since(begin); elapsed < 14*time.Millisecond {
		t.Fatalf("Do finished in %v: the RetryAfter hints were not honoured", elapsed)
	}
}

func TestResilienceExhausted(t *testing.T) {
	rt := serveRT(t, 2)
	defer rt.Close()
	f := &flaky{rt: rt, refusals: 99, hint: time.Millisecond}
	r := New(f, Policy{MaxAttempts: 3})

	out, err := r.Do(context.Background(), func(api.Ctx) {}, sched.SubmitOpts{})
	if !errors.Is(err, sched.ErrOverloaded) {
		t.Fatalf("Do error = %v, want an overload", err)
	}
	if out.Attempts != 3 || out.Admitted {
		t.Fatalf("outcome %+v, want exactly 3 refused attempts", out)
	}
}

func TestResilienceNoRetryOnPanic(t *testing.T) {
	rt := serveRT(t, 2)
	defer rt.Close()
	r := New(rt, Policy{MaxAttempts: 5})

	out, err := r.Do(context.Background(), func(api.Ctx) { panic("boom") }, sched.SubmitOpts{})
	var sp *api.StrandPanic
	if !errors.As(err, &sp) {
		t.Fatalf("Do error = %v, want the strand panic", err)
	}
	if out.Attempts != 1 || out.Retries != 0 {
		t.Fatalf("outcome %+v: a panic is an answer, not congestion — it must not be retried", out)
	}
}

// TestResilienceClosedNotRejected: a closed service is an answer, not
// a FailFast refusal, so it is neither retried nor tallied as Rejected.
func TestResilienceClosedNotRejected(t *testing.T) {
	rt := serveRT(t, 2)
	rt.Close()
	r := New(rt, Policy{MaxAttempts: 3})

	out, err := r.Do(context.Background(), func(api.Ctx) {}, sched.SubmitOpts{})
	if !errors.Is(err, sched.ErrServiceClosed) {
		t.Fatalf("Do error = %v, want ErrServiceClosed", err)
	}
	if out.Rejected != 0 || out.Attempts != 1 || out.Admitted {
		t.Fatalf("outcome %+v, want one unadmitted attempt and no rejection", out)
	}
}

// TestResilienceDeadlineAbandonsBackoff: a backoff that would end past
// ctx's deadline is abandoned at once — Do returns the refusal, not a
// deadline error, and does not sleep out the time it has left.
func TestResilienceDeadlineAbandonsBackoff(t *testing.T) {
	// Every attempt is refused, so the runtime is never reached.
	f := &flaky{refusals: 99, hint: 100 * time.Millisecond}
	r := New(f, Policy{MaxAttempts: 3})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	out, err := r.Do(ctx, func(api.Ctx) {}, sched.SubmitOpts{})
	elapsed := time.Since(begin)
	if !errors.Is(err, sched.ErrOverloaded) {
		t.Fatalf("Do error = %v, want the overload refusal", err)
	}
	if out.Attempts != 1 {
		t.Fatalf("outcome %+v: an 80–120ms backoff cannot fit a 50ms deadline, so only the first attempt runs", out)
	}
	if elapsed > 25*time.Millisecond {
		t.Fatalf("Do took %v: the backoff was slept, not abandoned", elapsed)
	}
}

func TestResilienceCtxCancelAbortsBackoff(t *testing.T) {
	// Every attempt is refused with a hint that raises each wait to the
	// 100ms cap, jittered to no less than 80ms. Cancel lands at 5ms,
	// inside the first wait, so a backoff that slept the wait out before
	// looking at ctx would take at least 80ms.
	f := &flaky{refusals: 99, hint: time.Second}
	r := New(f, Policy{MaxAttempts: 50})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, err := r.Do(ctx, func(api.Ctx) {}, sched.SubmitOpts{})
	if !errors.Is(err, sched.ErrOverloaded) {
		t.Fatalf("Do error = %v, want the last overload refusal", err)
	}
	if elapsed := time.Since(begin); elapsed > 60*time.Millisecond {
		t.Fatalf("Do took %v: cancellation did not abort the first backoff wait", elapsed)
	}
}

// TestResilienceConcurrentDoJitter: Do is documented safe for concurrent
// use, and every retrying call draws backoff jitter from the wrapper's
// one generator — under -race this fails unless the draw is atomic. The
// draws must also differ, or concurrent retriers would stay correlated.
func TestResilienceConcurrentDoJitter(t *testing.T) {
	rt := serveRT(t, 2)
	defer rt.Close()
	const callers = 8
	f := &flaky{rt: rt, refusals: 4 * callers}
	r := New(f, Policy{MaxAttempts: 16})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Do(context.Background(), func(api.Ctx) {}, sched.SubmitOpts{}); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()

	seen := make(map[float64]bool)
	var mu sync.Mutex
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				x := r.rng.float64()
				mu.Lock()
				if x < 0 || x >= 1 || seen[x] {
					t.Errorf("draw %v out of [0,1) or repeated", x)
				}
				seen[x] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
