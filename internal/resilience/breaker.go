package resilience

import (
	"sync"
	"time"
)

// BreakerPolicy parameterises the circuit breaker.
type BreakerPolicy struct {
	// Window is the rolling observation window (default 1s). Outcomes
	// older than one window age out of the failure-rate judgement.
	Window time.Duration
	// MinSamples is the observation floor before the breaker will
	// judge at all (default 10): a cold window never opens the
	// circuit.
	MinSamples int
	// FailureRate opens the circuit when failures/observations within
	// the window reaches it (default 0.5).
	FailureRate float64
	// Cooldown is how long an open circuit refuses before moving to
	// half-open (default 100ms), which admits one trial submission: its
	// success closes the circuit, its failure re-opens it.
	Cooldown time.Duration
}

func (p *BreakerPolicy) fill() {
	if p.Window <= 0 {
		p.Window = time.Second
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 10
	}
	if p.FailureRate <= 0 || p.FailureRate > 1 {
		p.FailureRate = 0.5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 100 * time.Millisecond
	}
}

// Breaker state machine. Closed passes everything through while
// tallying outcomes; a window whose failure rate crosses the policy
// threshold trips it open. Open refuses locally until the cooldown
// elapses; the attempt that finds it elapsed is the one half-open probe,
// and every other attempt is refused until the probe's outcome closes
// the circuit or re-opens it.
const (
	brClosed uint32 = iota
	brOpen
	brHalfOpen
)

// bucketCount slices the rolling window; outcomes age out one slice at
// a time rather than all at once.
const bucketCount = 8

type bucket struct {
	start    time.Time
	total    int
	failures int
}

// breaker is the shared circuit state. One mutex guards everything —
// allow/observe run at admission frequency, not the scheduler hot
// path, and the critical sections are a few integer updates.
type breaker struct {
	pol BreakerPolicy

	//nowa:lock level=5 name=brk.mu
	mu sync.Mutex
	//nowa:fsm phases=brClosed,brOpen,brHalfOpen transitions=brClosed>brOpen,brOpen>brHalfOpen,brHalfOpen>brClosed,brHalfOpen>brOpen
	state    uint32
	openedAt time.Time
	buckets  [bucketCount]bucket
}

func newBreaker(pol BreakerPolicy) *breaker {
	pol.fill()
	return &breaker{pol: pol}
}

// allow asks whether an attempt may be submitted right now. It may
// advance open → half-open when the cooldown has elapsed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		return true
	case brOpen:
		if time.Since(b.openedAt) < b.pol.Cooldown {
			return false
		}
		b.state = brHalfOpen
		return true
	default: // brHalfOpen: the probe is in flight
		return false
	}
}

// observe feeds one attempt outcome back. In closed state it updates
// the rolling window and may trip the circuit; in half-open it scores
// the probe.
func (b *breaker) observe(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	switch b.state {
	case brClosed:
		bk := b.currentBucket(now)
		bk.total++
		if !ok {
			bk.failures++
		}
		total, failures := b.windowSums(now)
		if total >= b.pol.MinSamples && float64(failures)/float64(total) >= b.pol.FailureRate {
			b.state = brOpen
			b.openedAt = now
			b.resetWindow()
		}
	case brHalfOpen:
		if !ok {
			b.state = brOpen
			b.openedAt = now
			return
		}
		b.state = brClosed
		b.resetWindow()
	case brOpen:
		// A straggler attempt admitted before the trip resolved late;
		// the window was reset at the trip, nothing to score.
	}
}

// currentBucket rotates the ring to the slice covering now.
func (b *breaker) currentBucket(now time.Time) *bucket {
	slice := b.pol.Window / bucketCount
	idx := int((now.UnixNano() / int64(slice)) % bucketCount)
	bk := &b.buckets[idx]
	if now.Sub(bk.start) >= slice {
		*bk = bucket{start: now.Truncate(slice)}
	}
	return bk
}

// windowSums totals the buckets still inside the window.
func (b *breaker) windowSums(now time.Time) (total, failures int) {
	for i := range b.buckets {
		bk := &b.buckets[i]
		if bk.total == 0 || now.Sub(bk.start) >= b.pol.Window {
			continue
		}
		total += bk.total
		failures += bk.failures
	}
	return total, failures
}

func (b *breaker) resetWindow() {
	for i := range b.buckets {
		b.buckets[i] = bucket{}
	}
}

func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	}
	return "closed"
}
