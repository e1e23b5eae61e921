package resilience

import (
	"context"
	"sort"
	"sync"
	"time"

	"nowa/internal/api"
	"nowa/internal/sched"
)

// HedgePolicy parameterises hedged submissions.
type HedgePolicy struct {
	// Quantile of the observed completion-latency distribution at
	// which the hedge fires (default 0.95): a primary still unresolved
	// past that is in the tail, so a second copy is raced against it.
	Quantile float64
	// MinDelay / MaxDelay clamp the computed hedge delay (defaults
	// 1ms / 1s). MinDelay also stands in while the window is cold.
	MinDelay time.Duration
	MaxDelay time.Duration
}

func (p *HedgePolicy) fill() {
	if p.Quantile <= 0 || p.Quantile >= 1 {
		p.Quantile = 0.95
	}
	if p.MinDelay <= 0 {
		p.MinDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.MaxDelay < p.MinDelay {
		p.MaxDelay = p.MinDelay
	}
}

// hedgeWindowSize bounds the latency sample ring. 256 samples make the
// p95 estimate stable enough while keeping the quantile sort trivial.
const hedgeWindowSize = 256

// hedgeWindow is the shared completion-latency sample ring the hedge
// delay is computed from.
type hedgeWindow struct {
	pol HedgePolicy

	//nowa:lock level=6 name=hdg.mu
	mu      sync.Mutex
	samples [hedgeWindowSize]time.Duration
	n       int // filled prefix while warming, then hedgeWindowSize
	next    int // ring cursor
	scratch []time.Duration
}

func newHedgeWindow(pol HedgePolicy) *hedgeWindow {
	pol.fill()
	return &hedgeWindow{pol: pol, scratch: make([]time.Duration, 0, hedgeWindowSize)}
}

// record feeds one winning completion latency into the ring.
func (h *hedgeWindow) record(d time.Duration) {
	h.mu.Lock()
	h.samples[h.next] = d
	h.next = (h.next + 1) % hedgeWindowSize
	if h.n < hedgeWindowSize {
		h.n++
	}
	h.mu.Unlock()
}

// delay computes the current hedge trigger: the policy quantile of the
// sample window, clamped. A cold window (fewer than 8 samples) answers
// MinDelay — hedging early against an unknown distribution is the
// conservative direction, because the loser is cancelled cleanly.
func (h *hedgeWindow) delay() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < 8 {
		return h.pol.MinDelay
	}
	h.scratch = append(h.scratch[:0], h.samples[:h.n]...)
	sort.Slice(h.scratch, func(i, j int) bool { return h.scratch[i] < h.scratch[j] })
	idx := int(float64(h.n) * h.pol.Quantile)
	if idx >= h.n {
		idx = h.n - 1
	}
	d := h.scratch[idx]
	if d < h.pol.MinDelay {
		d = h.pol.MinDelay
	}
	if d > h.pol.MaxDelay {
		d = h.pol.MaxDelay
	}
	return d
}

// hedgeAttempt is one racer: a submission plus the private cancel that
// reaches only this copy (never the caller's context).
type hedgeAttempt struct {
	sub    *sched.Submission
	cancel context.CancelFunc
}

// hedge races the already-submitted primary against at most one late
// copy and returns the winning outcome. The winner is the first
// attempt to resolve *successfully*; if every launched attempt fails,
// the last failure is returned once none remain in flight. Each copy —
// the primary included — runs under a private child context of the
// caller's ctx, so losing cancels exactly one copy: a queued loser is
// unlinked from the admission queue without running (the service
// accounts it Cancelled), a running loser is cancelled cooperatively.
// Either way its future resolves and its vessel returns to the pool; a
// detached watcher per loser observes that resolution and then
// releases the loser's context, so nothing leaks even though Do has
// already returned.
//
// Hedging duplicates work by design; use it for idempotent tasks. Only
// the winner's latency feeds the delay window — a cancelled loser says
// nothing about service speed.
func (r *Resilient) hedge(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts, primary hedgeAttempt, start time.Time, out *Outcome) error {
	attempts := []hedgeAttempt{primary}
	resCh := make(chan int, 2)
	watch := func(i int, s *sched.Submission) {
		go func() {
			<-s.Done()
			resCh <- i
		}()
	}
	watch(0, primary.sub)

	timer := time.NewTimer(r.hdg.delay())
	defer timer.Stop()

	pending := 1
	var lastErr error
	finish := func(winner int, err error) error {
		for i, a := range attempts {
			if i == winner {
				a.cancel()
				continue
			}
			// Cancel the loser now; observe its resolution off to the
			// side, then release its context. CancelFunc is idempotent,
			// so the double release when the loser already resolved is
			// harmless.
			a.cancel()
			go func(a hedgeAttempt) {
				<-a.sub.Done()
				a.cancel()
			}(a)
		}
		if err == nil {
			r.hdg.record(time.Since(start))
			if winner > 0 {
				out.HedgeWon = true
			}
		}
		return err
	}
	for {
		select {
		case i := <-resCh:
			pending--
			err := attempts[i].sub.Err()
			if err == nil {
				return finish(i, nil)
			}
			lastErr = err
			if pending == 0 {
				// Nothing left in flight: a failure with no racer is the
				// retry layer's problem, not a reason to hedge late.
				return finish(-1, lastErr)
			}
		case <-timer.C:
			hctx, hcancel := context.WithCancel(ctx)
			h, serr := r.sub.SubmitCtxOpts(hctx, task, opts)
			out.Attempts++
			if serr != nil {
				hcancel()
				// A refused hedge is not a failed call — the primary is
				// still in flight. Count it and keep waiting.
				out.Rejected++
				if pending == 0 {
					return finish(-1, lastErr)
				}
				continue
			}
			out.Hedged = true
			attempts = append(attempts, hedgeAttempt{sub: h, cancel: hcancel})
			watch(len(attempts)-1, h)
			pending++
		}
	}
}
