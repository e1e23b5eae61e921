// Package resilience layers client-side retry over a serving runtime's
// Submit: bounded attempts with capped exponential backoff and jitter,
// honouring the service's retry-after hints and the caller's deadline.
//
// The layer is deliberately client-side. The scheduler already defends
// itself (a bounded admission queue, shedding, FailFast refusals with
// retry-after hints, and stall recovery for a pinned worker); resilience
// is about what a *caller* should do with the service's "not now"
// (ErrOverloaded with a RetryAfter hint, or ErrShed for a queued
// eviction) instead of hand-rolling retry loops at every call site: a
// bounded, jittered, hint-honouring retry.
//
// Panics, deadline expiries, and caller cancellations are never
// retried: they are answers, not congestion. Only errors matching
// sched.ErrOverloaded (which ErrShed wraps) count as transient.
package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"nowa/internal/api"
	"nowa/internal/sched"
)

// Submitter is the slice of the serving runtime resilience needs. Both
// *sched.Runtime and the top-level nowa runtime satisfy it.
type Submitter interface {
	SubmitCtxOpts(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts) (*sched.Submission, error)
}

// Policy parameterises a Resilient wrapper. The zero value retries
// transient overloads up to three attempts.
type Policy struct {
	// MaxAttempts bounds admission attempts per Do (first try
	// included). Zero means the default of 3; 1 disables retry.
	MaxAttempts int
}

// The retry schedule: attempt k waits baseBackoff·2^(k-1), raised to the
// service's RetryAfter hint when the refusal carries a larger one, capped
// at maxBackoff, then spread by ±jitterFrac. jitterSeed starts the shared
// jitter sequence.
const (
	baseBackoff = 500 * time.Microsecond
	maxBackoff  = 100 * time.Millisecond
	jitterFrac  = 0.2
	jitterSeed  = 0x9e3779b97f4a7c15
)

// Outcome reports what one Do spent to reach its result. Counters, not
// a state machine: every field is a tally over the attempts made.
type Outcome struct {
	// Attempts is the number of admission attempts made (≥1).
	Attempts int
	// Admitted is true when some attempt was admitted and ran to a
	// resolution (even a panic or cancellation — those are outcomes).
	Admitted bool
	// Rejected counts FailFast refusals (ErrOverloaded) at admission
	// time; a closed service is not a refusal.
	Rejected int
	// Sheds counts admissions that were later evicted from the queue.
	Sheds int
	// Retries counts re-submissions after a transient failure.
	Retries int
	// FinalAt is when the final attempt was submitted — the point from
	// which a caller that billed its own backoff should start measuring
	// service latency.
	FinalAt time.Time
}

// Resilient wraps a Submitter with a Policy. Safe for concurrent use:
// every Do draws its jitter from one shared generator.
type Resilient struct {
	sub         Submitter
	maxAttempts int
	rng         jitterRNG
}

// New builds a Resilient wrapper over sub.
func New(sub Submitter, pol Policy) *Resilient {
	r := &Resilient{sub: sub, maxAttempts: pol.MaxAttempts}
	if r.maxAttempts <= 0 {
		r.maxAttempts = 3
	}
	r.rng.s.Store(jitterSeed)
	return r
}

// Do submits task through the policy and blocks until an admitted
// attempt resolves or the attempts are exhausted. The returned error is
// the task outcome (nil, panic, cancellation) or the final transient
// error when every attempt was refused; the Outcome reports what was
// spent getting there.
//
// ctx bounds the whole call: cancellation aborts backoff waits and
// cancels the in-flight attempt, and a backoff that would end past
// ctx's deadline is abandoned at once. opts pass through to every
// attempt.
func (r *Resilient) Do(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts) (Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var out Outcome
	for {
		out.Attempts++
		out.FinalAt = time.Now()
		err := r.attempt(ctx, task, opts, &out)
		// A real outcome — success, panic, cancellation, expiry, or a
		// non-overload admission error (service closed) — ends the call,
		// and so does a transient one with no retry left.
		if !transient(err) || !r.backoff(ctx, out.Attempts, retryAfterHint(err)) {
			return out, err
		}
		out.Retries++
	}
}

// attempt makes one submission, waits it out, and tallies its admission
// outcome into out.
func (r *Resilient) attempt(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts, out *Outcome) error {
	sub, err := r.sub.SubmitCtxOpts(ctx, task, opts)
	if err != nil {
		if transient(err) {
			out.Rejected++
		}
		return err
	}
	out.Admitted = true
	err = sub.Wait()
	if errors.Is(err, sched.ErrShed) {
		out.Sheds++
	}
	return err
}

// transient reports whether err is a congestion signal worth retrying:
// anything matching sched.ErrOverloaded, which covers FailFast
// refusals (*OverloadedError) and queue evictions (ErrShed).
func transient(err error) bool {
	return errors.Is(err, sched.ErrOverloaded)
}

// retryAfterHint extracts the service's FailFast retry-after estimate,
// zero when the error carries none.
func retryAfterHint(err error) time.Duration {
	var oe *sched.OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// backoff sleeps the attempt's wait — the exponential schedule raised
// to the service hint, capped, jittered — and reports whether another
// attempt may proceed. False when ctx is done, the wait would end past
// ctx's deadline, or this was the last attempt.
func (r *Resilient) backoff(ctx context.Context, attempt int, hint time.Duration) bool {
	if attempt >= r.maxAttempts {
		return false
	}
	wait := baseBackoff << uint(attempt-1)
	if wait > maxBackoff || wait <= 0 {
		wait = maxBackoff
	}
	if hint > wait {
		wait = min(hint, maxBackoff)
	}
	wait += time.Duration((r.rng.float64()*2 - 1) * jitterFrac * float64(wait))
	if deadline, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(deadline) {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// jitterRNG is splitmix64 as a wait-free shared generator: each draw
// advances the state by one atomic add of the golden-ratio increment and
// mixes the value that add returned, so concurrent Do calls each get a
// distinct, well-scrambled word without a lock on the backoff path.
type jitterRNG struct{ s atomic.Uint64 }

// float64 draws from [0, 1).
func (j *jitterRNG) float64() float64 {
	z := j.s.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
