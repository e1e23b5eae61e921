// Package resilience layers client-side fault tolerance over a serving
// runtime's Submit: bounded retries with capped exponential backoff and
// jitter, and hedged submissions that race a second attempt against a
// slow first one.
//
// The layer is deliberately client-side. The scheduler already defends
// itself (a bounded admission queue, shedding, FailFast refusals with
// retry-after hints); resilience is about what a *caller* should do with
// those signals instead of hand-rolling retry loops at every call site.
// The division of labour:
//
//   - The service says "not now" (ErrOverloaded with a RetryAfter
//     hint, or ErrShed for a queued eviction). Resilience turns that
//     into a bounded, jittered, hint-honouring retry.
//   - The service says nothing for too long. Hedging submits a second
//     copy after a latency-percentile delay; the first result wins and
//     the loser is cancelled through its submission context, which
//     unlinks it from the queue (or cooperatively cancels it
//     mid-flight) without leaking a vessel.
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
// transient overloads up to three attempts with 500µs base backoff; set
// Hedge to enable hedging.
type Policy struct {
	// MaxAttempts bounds admissions attempts per Do (first try
	// included). Zero means the default of 3; 1 disables retry.
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule: attempt k waits
	// BaseBackoff·2^(k-1), raised to the service's RetryAfter hint when
	// the refusal carries a larger one. Zero means 500µs.
	BaseBackoff time.Duration
	// MaxBackoff caps one wait. Zero means 100ms.
	MaxBackoff time.Duration
	// Budget, if nonzero, bounds the total time Do may spend across
	// attempts and backoffs. A retry that cannot fit its wait inside
	// the remaining budget is abandoned and the last error returned.
	Budget time.Duration
	// Seed seeds the jitter RNG; zero picks a fixed default, so two
	// wrappers that want decorrelated jitter should pass distinct
	// seeds.
	Seed uint64
	// Hedge enables hedged submissions when non-nil.
	Hedge *HedgePolicy
}

func (p *Policy) fill() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 500 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 0x9e3779b97f4a7c15
	}
}

// Outcome reports what one Do spent to reach its result. Counters, not
// a state machine: every field is a tally over the attempts made.
type Outcome struct {
	// Attempts is the number of admission attempts made (≥1), hedge
	// attempts included.
	Attempts int
	// Admitted is true when some attempt was admitted and ran to a
	// resolution (even a panic or cancellation — those are outcomes).
	Admitted bool
	// Rejected counts FailFast refusals at admission time.
	Rejected int
	// Sheds counts admissions that were later evicted from the queue.
	Sheds int
	// Retries counts re-submissions after a transient failure.
	Retries int
	// Hedged is true when a hedge attempt was launched.
	Hedged bool
	// HedgeWon is true when the hedge resolved before the primary.
	HedgeWon bool
	// FinalAt is when the winning (or final failing) attempt was
	// submitted — the point from which a caller that billed its own
	// backoff should start measuring service latency.
	FinalAt time.Time
}

// Resilient wraps a Submitter with a Policy. Safe for concurrent use;
// the hedge latency window is shared across all Do calls, which is what
// makes the hedge delay a live percentile rather than a per-call guess.
type Resilient struct {
	sub Submitter
	pol Policy
	hdg *hedgeWindow
	rng jitterRNG
}

// New builds a Resilient wrapper over sub. The Policy is copied and
// normalised; a nil-Hedge policy yields a pure retry/backoff wrapper.
func New(sub Submitter, pol Policy) *Resilient {
	pol.fill()
	r := &Resilient{sub: sub, pol: pol}
	r.rng.s.Store(pol.Seed)
	if pol.Hedge != nil {
		r.hdg = newHedgeWindow(*pol.Hedge)
	}
	return r
}

// Do submits task through the policy and blocks until a winning
// attempt resolves or the attempts are exhausted. The returned error is
// the task outcome (nil, panic, cancellation) or the final transient
// error when every attempt was refused; the Outcome reports what was
// spent getting there.
//
// ctx bounds the whole call: cancellation aborts backoff waits and
// cancels in-flight attempts. opts pass through to every attempt.
func (r *Resilient) Do(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts) (Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var deadline time.Time
	if r.pol.Budget > 0 {
		deadline = time.Now().Add(r.pol.Budget)
	}
	var out Outcome
	var lastErr error
	for attempt := 1; attempt <= r.pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			out.Retries++
		}
		out.FinalAt = time.Now()
		err, admitted, shed := r.attempt(ctx, task, opts, &out)
		if admitted {
			out.Admitted = true
		}
		if shed {
			out.Sheds++
		}
		if !admitted {
			out.Rejected++
		}
		if err == nil || !transient(err) {
			// A real outcome: success, panic, cancellation, expiry — or
			// a non-overload admission error (service closed). Done.
			return out, err
		}
		// Transient: overloaded refusal or queued-then-shed.
		lastErr = err
		if !r.backoff(ctx, attempt, retryAfterHint(err), deadline) {
			break
		}
	}
	return out, lastErr
}

// attempt makes one (possibly hedged) submission and waits it out.
// With hedging enabled the primary gets a private child context so a
// lost primary can be cancelled without touching the caller's ctx.
func (r *Resilient) attempt(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts, out *Outcome) (err error, admitted, shed bool) {
	out.Attempts++
	start := time.Now()
	if r.hdg != nil {
		pctx, pcancel := context.WithCancel(ctx)
		primary, serr := r.sub.SubmitCtxOpts(pctx, task, opts)
		if serr != nil {
			pcancel()
			return serr, false, false
		}
		err = r.hedge(ctx, task, opts, hedgeAttempt{sub: primary, cancel: pcancel}, start, out)
		return err, true, errors.Is(err, sched.ErrShed)
	}
	primary, serr := r.sub.SubmitCtxOpts(ctx, task, opts)
	if serr != nil {
		return serr, false, false
	}
	err = primary.Wait()
	return err, true, errors.Is(err, sched.ErrShed)
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

// jitterFrac spreads each backoff wait by ±jitterFrac·wait to
// decorrelate retrying callers.
const jitterFrac = 0.2

// backoff sleeps the attempt's wait — the exponential schedule raised
// to the service hint, capped, jittered — and reports whether another
// attempt may proceed. False when ctx is done, the budget cannot cover
// the wait, or this was the last attempt.
func (r *Resilient) backoff(ctx context.Context, attempt int, hint time.Duration, deadline time.Time) bool {
	if attempt >= r.pol.MaxAttempts {
		return false
	}
	wait := r.pol.BaseBackoff << uint(attempt-1)
	if wait > r.pol.MaxBackoff || wait <= 0 {
		wait = r.pol.MaxBackoff
	}
	if hint > wait {
		wait = hint
		if wait > r.pol.MaxBackoff {
			wait = r.pol.MaxBackoff
		}
	}
	wait += time.Duration((r.rng.float64()*2 - 1) * jitterFrac * float64(wait))
	if !deadline.IsZero() && time.Now().Add(wait).After(deadline) {
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
