// Package loadgen drives open-loop arrival-rate load against a serving
// scheduler runtime and measures the latency distribution of admitted
// work. Open-loop means arrivals are scheduled on a wall clock
// independent of completions — the generator does not slow down when the
// service does — so queueing delay and overload behaviour are measured
// honestly (no coordinated omission: latency is taken from the
// *scheduled* arrival time, not the submit call).
//
// Client behaviour at overload is delegated to internal/resilience: each
// arrival is one resilience.Do that retries a refusal once.
//
// Arrivals are paced with time.Sleep, which on hosts with 1 kHz timers
// returns up to a millisecond late and bills that lag as latency. That
// is harmless for the fault campaign (FaultSweep), whose bars are
// ratios between scenarios paced the same way and whose stalls are tens
// of milliseconds; absolute serving latency is measured by the
// spin-polling generator in benchmark/, not here.
package loadgen

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nowa/internal/api"
	"nowa/internal/resilience"
	"nowa/internal/sched"
)

// Config parameterises one measurement point.
type Config struct {
	// Runtime is the serving runtime under load (StartService already
	// called by the harness).
	Runtime *sched.Runtime
	// Rate is the offered load in submissions per second.
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Task is the work each submission performs.
	Task func(api.Ctx)
}

// Result is the outcome of one measurement point.
type Result struct {
	RateRPS float64 `json:"rate_rps"` // offered arrival rate
	Offered int64   `json:"offered"`  // arrivals generated
	// Admission outcomes, client-side view.
	Admitted     int64 `json:"admitted"`      // arrivals some attempt of which was admitted
	Rejected     int64 `json:"rejected"`      // refusal events (ErrOverloaded)
	Shed         int64 `json:"shed"`          // admissions evicted while queued
	ShedsRetried int64 `json:"sheds_retried"` // retry attempts after a refusal or shed
	RetryOK      int64 `json:"retries_ok"`    // retried arrivals that were admitted
	Completed    int64 `json:"completed"`     // futures resolved nil
	Failed       int64 `json:"failed"`        // futures resolved with other errors
	// Latency of completed work from scheduled arrival, microseconds.
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	// GoodputRPS is completions per second of generation time.
	GoodputRPS float64 `json:"goodput_rps"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// submitterState collects one producer's latency samples without locks.
type submitterState struct {
	samples []float64 // microseconds
	mu      sync.Mutex
}

// submitters is the number of producer goroutines sharing the arrival
// schedule; arrivals are interleaved round-robin so no single
// goroutine's sleep precision bounds the rate.
const submitters = 4

// Run generates cfg.Duration of open-loop arrivals at cfg.Rate and
// blocks until every in-flight future resolved.
func Run(cfg Config) Result {
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	total := int64(cfg.Rate * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)

	var res Result
	res.RateRPS = cfg.Rate
	var admitted, rejected, shed, retried, retryOK, completed, failed atomic.Int64

	r := resilience.New(cfg.Runtime, resilience.Policy{MaxAttempts: 2})

	states := make([]submitterState, submitters)
	var waiters sync.WaitGroup

	// Each arrival runs its whole resilient call — submit, backoff,
	// wait — on a tracked goroutine. Nothing ever sleeps on a
	// submitter goroutine: a sleeping submitter would backlog the
	// arrival schedule and bill generator lag as service latency. The
	// Add happens on the caller's goroutine so waiters.Wait cannot miss
	// a straggler.
	arrive := func(st *submitterState, at time.Time) {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			out, err := r.Do(context.Background(), cfg.Task, sched.SubmitOpts{})
			resolved := time.Now()
			if out.Admitted {
				admitted.Add(1)
			}
			rejected.Add(int64(out.Rejected))
			shed.Add(int64(out.Sheds))
			retried.Add(int64(out.Retries))
			if out.Retries > 0 && out.Admitted {
				retryOK.Add(1)
			}
			switch {
			case err == nil:
				completed.Add(1)
				// A first-attempt completion is billed from the scheduled
				// arrival (coordinated-omission honesty); a retried one
				// from its winning attempt's submit — client backoff is
				// the client's time, not the service's.
				from := at
				if out.Retries > 0 {
					from = out.FinalAt
				}
				lat := float64(resolved.Sub(from).Microseconds())
				st.mu.Lock()
				st.samples = append(st.samples, lat)
				st.mu.Unlock()
			case errors.Is(err, sched.ErrShed), errors.Is(err, sched.ErrOverloaded):
				// Terminal congestion outcome; already tallied above.
			default:
				failed.Add(1)
			}
		}()
	}

	start := time.Now()
	var gen sync.WaitGroup
	for s := 0; s < submitters; s++ {
		gen.Add(1)
		go func(id int) {
			defer gen.Done()
			st := &states[id]
			for i := int64(id); i < total; i += submitters {
				at := start.Add(time.Duration(i) * interval)
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				arrive(st, at)
			}
		}(s)
	}
	gen.Wait()
	res.Offered = total
	genElapsed := time.Since(start)
	waiters.Wait()

	res.Admitted = admitted.Load()
	res.Rejected = rejected.Load()
	res.Shed = shed.Load()
	res.ShedsRetried = retried.Load()
	res.RetryOK = retryOK.Load()
	res.Completed = completed.Load()
	res.Failed = failed.Load()
	res.ElapsedMS = float64(genElapsed.Milliseconds())
	if sec := genElapsed.Seconds(); sec > 0 {
		res.GoodputRPS = float64(res.Completed) / sec
	}

	all := make([]float64, 0, res.Completed)
	for i := range states {
		all = append(all, states[i].samples...)
	}
	sort.Float64s(all)
	res.P50us = percentile(all, 0.50)
	res.P99us = percentile(all, 0.99)
	res.P999us = percentile(all, 0.999)
	return res
}

// percentile reads the q-quantile from an ascending sample slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SpinTask returns a small fork/join task: two spawned children and the
// parent each spin roughly `iters` iterations of integer work, so a
// submission exercises spawn, steal, and join — the scheduler, not just
// the admission queue.
func SpinTask(iters int) func(api.Ctx) {
	return func(c api.Ctx) {
		var a, b uint64
		s := c.Scope()
		s.Spawn(func(api.Ctx) { a = spin(iters) })
		s.Spawn(func(api.Ctx) { b = spin(iters) })
		d := spin(iters)
		s.Sync()
		sink.Store(a ^ b ^ d)
	}
}

// sink defeats dead-code elimination of the spin loops.
var sink atomic.Uint64

func spin(iters int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
