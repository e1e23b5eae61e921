package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"nowa"
	"nowa/internal/api"
	"nowa/internal/resilience"
	"nowa/internal/sched"
)

// The open-loop generator. The whole Poisson schedule is drawn from the
// seed before the run; one goroutine walks it and submits each arrival at
// its due instant, never waiting for a reply, so a slow service is offered
// the same load as a fast one. Latency is billed from the due instant, and
// the generator measures how late it ran itself (gen_lag: due → Submit
// entered) so that a starved generator is never read as a fast service.

const (
	// statWindow is the slice a run's latencies are summarised over: each
	// slice gives a p50 and a p99 and the run reports the median slice, so
	// one host stall moves one slice and not the figure.
	statWindow = time.Second
	// inputCount is the number of distinct task inputs drawn from the seed.
	inputCount = 64
	// warmArrivals submissions, warmGap apart, warm a fresh service.
	warmArrivals = 2048
	warmGap      = 20 * time.Microsecond
)

// Outcome of one arrival.
const (
	pending uint8 = iota
	completed
	refused // ErrOverloaded after the client's last attempt
	shed    // admitted, then evicted from the queue
	wrongSum
	failedErr
)

// arrival is one scheduled submission and everything stamped on it.
type arrival struct {
	due   int64 // scheduled instant; latency is billed from here
	enter int64 // client goroutine entered Submit (or Do)
	ret   int64 // the admitting Submit returned (traced only)
	first int64 // task body's first instruction (traced only)
	last  int64 // task body's last instruction (traced only)
	obs   int64 // waiter resumed with the outcome
	sum   uint64
	input uint16
	state uint8
}

type arrivalKey struct{}

// stampingSubmitter sits between the resilience client and the runtime so
// a traced run can stamp each Submit it makes from the outside.
type stampingSubmitter struct{ rt *sched.Runtime }

func (s stampingSubmitter) SubmitCtxOpts(ctx context.Context, task func(api.Ctx), opts sched.SubmitOpts) (*sched.Submission, error) {
	sub, err := s.rt.SubmitCtxOpts(ctx, task, opts)
	if a, ok := ctx.Value(arrivalKey{}).(*arrival); ok {
		a.ret = now()
	}
	return sub, err
}

// server is a set-up open-loop workload: a warm serving runtime, the task
// inputs with their expected checksums, and the client policy.
type server struct {
	rt     *sched.Runtime
	client *resilience.Resilient // nil: plain Submit + Wait
	spin   int                   // rounds per strand
	inputs [inputCount]uint64
	want   [inputCount]uint64
}

// spin is the leaf work: iters rounds of xorshift from x.
func spin(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// checksum is what a task must hand back for input x, computed serially.
func checksum(x uint64, rounds int) uint64 {
	return spin(x, rounds) ^ spin(x+1, rounds) ^ spin(x+2, rounds)
}

// task is the three-strand submission: two spawned children and the
// parent spin, so one submission crosses spawn, steal and join.
func (s *server) task(a *arrival, traced bool) func(nowa.Ctx) {
	x, rounds := s.inputs[a.input], s.spin
	return func(c nowa.Ctx) {
		if traced {
			a.first = now()
		}
		var p, q uint64
		sc := c.Scope()
		sc.Spawn(func(nowa.Ctx) { p = spin(x, rounds) })
		sc.Spawn(func(nowa.Ctx) { q = spin(x+1, rounds) })
		d := spin(x+2, rounds)
		sc.Sync()
		a.sum = p ^ q ^ d
		if traced {
			a.last = now()
		}
	}
}

// resolve stamps the outcome of arrival a, whose submission ended in err,
// and compares the checksum the task handed back.
func (s *server) resolve(a *arrival, err error) {
	a.obs = now()
	switch {
	case err == nil && a.sum == s.want[a.input]:
		a.state = completed
	case err == nil:
		a.state = wrongSum
	case errors.Is(err, nowa.ErrShed):
		a.state = shed
	case errors.Is(err, nowa.ErrOverloaded):
		a.state = refused
	default:
		a.state = failedErr
	}
}

// setupOpen builds the runtime, starts the service, draws the inputs and
// warms the vessel and stack pools with a burst of submissions.
func setupOpen(w *workload, cfg config, rep *report) (*server, error) {
	s := &server{rt: newRuntime(workers(), false), spin: w.spin}
	if err := nowa.StartService(s.rt, w.svc); err != nil {
		return nil, err
	}
	if w.client != nil {
		s.client = resilience.New(stampingSubmitter{s.rt}, *w.client)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := range s.inputs {
		s.inputs[i] = rng.Uint64() | 1
		s.want[i] = checksum(s.inputs[i], s.spin)
	}
	// Warm-up: a dense burst through the same generator. A FailFast
	// queue may refuse part of it; that is the policy working.
	warm := make([]arrival, warmArrivals)
	for i := range warm {
		warm[i] = arrival{due: int64(i) * int64(warmGap), input: uint16(i % inputCount)}
	}
	s.generate(warm, false)
	for i := range warm {
		if st := warm[i].state; st != completed && st != refused {
			rep.violate("warm-up submission ended in state %d", st)
		}
	}
	return s, nil
}

// schedule draws the Poisson arrivals of one segment: exponential gaps at
// rate/s for the given time, offsets from the segment's start.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []arrival {
	arr := make([]arrival, 0, int(rate*d.Seconds()*1.1)+16)
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		arr = append(arr, arrival{due: int64(t * 1e9), input: uint16(rng.Intn(inputCount))})
	}
	if len(arr) == 0 {
		arr = append(arr, arrival{})
	}
	return arr
}

// waitUntil returns at the due instant. It polls the clock, yielding the
// processor between polls, and never sleeps: a sleep on the reference host
// overshoots by about a millisecond whatever its length (the kernel's
// timers tick at 1 kHz), which is twenty times the latency being measured
// and would be billed to the service.
func waitUntil(due int64) {
	for now() < due {
		runtime.Gosched()
	}
}

// generate offers arr (due offsets from now) and returns, once every
// waiter has resolved, how long generation took. A plain client's Submit
// is made here, on the scheduling goroutine, and only the wait gets a
// goroutine of its own; a retrying client sleeps between attempts, so its
// whole call does.
func (s *server) generate(arr []arrival, traced bool) time.Duration {
	var waiters sync.WaitGroup
	start := now()
	for i := range arr {
		a := &arr[i]
		a.due += start
		waitUntil(a.due)
		waiters.Add(1)
		if s.client != nil {
			go func() {
				defer waiters.Done()
				a.enter = now()
				ctx := context.Background()
				if traced {
					ctx = context.WithValue(ctx, arrivalKey{}, a)
				}
				_, err := s.client.Do(ctx, s.task(a, traced), nowa.SubmitOpts{})
				s.resolve(a, err)
			}()
			continue
		}
		a.enter = now()
		sub, err := nowa.Submit(s.rt, s.task(a, traced), nowa.SubmitOpts{})
		a.ret = now()
		go func() {
			defer waiters.Done()
			if err == nil {
				err = sub.Wait()
			}
			s.resolve(a, err)
		}()
	}
	gen := time.Duration(now() - start)
	waiters.Wait()
	return gen
}

// lagSummary is how late the generator ran: due → client entered Submit.
type lagSummary struct {
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// segmentStats is what one generated segment measured.
type segmentStats struct {
	offered, completed, met int
	wrong, errored          int // outcomes no workload expects
	refused, shed           int // outcomes only overload expects
	goodput                 float64
	p50, p99                float64   // µs; median over statWindow slices
	latencies               []float64 // µs, ascending, completed arrivals
	lag                     lagSummary
}

func summarise(arr []arrival, gen time.Duration) segmentStats {
	st := segmentStats{offered: len(arr)}
	lags := make([]float64, 0, len(arr))
	slices := map[int64][]float64{}
	origin := arr[0].due
	for i := range arr {
		a := &arr[i]
		lags = append(lags, us(a.enter-a.due))
		switch a.state {
		case completed:
			lat := us(a.obs - a.due)
			st.completed++
			if a.obs-a.due <= int64(sloLimit) {
				st.met++
			}
			st.latencies = append(st.latencies, lat)
			w := (a.due - origin) / int64(statWindow)
			slices[w] = append(slices[w], lat)
		case refused:
			st.refused++
		case shed:
			st.shed++
		case wrongSum:
			st.wrong++
		default:
			st.errored++
		}
	}
	st.goodput = ratio(float64(st.completed), gen.Seconds())
	sort.Float64s(st.latencies)
	sort.Float64s(lags)
	st.lag = lagSummary{P50Us: medianSorted(lags), MaxUs: lags[len(lags)-1]}
	st.lag.P99Us, _ = quantile(lags, 0.99)

	var p50s, p99s []float64
	for _, lat := range slices {
		sort.Float64s(lat)
		p50s = append(p50s, medianSorted(lat))
		if v, ok := quantile(lat, 0.99); ok {
			p99s = append(p99s, v)
		}
	}
	st.p50 = median(p50s)
	st.p99 = median(p99s)
	return st
}

// account books a segment's outcomes into the report: every arrival was
// attempted; a wrong checksum or an unexpected error always fails, a
// refusal or a shed fails unless the workload's policy is to refuse.
func account(st segmentStats, mayRefuse bool, rep *report) {
	rep.Attempted += int64(st.offered)
	bad := st.wrong + st.errored
	if mayRefuse {
		rep.Refused += int64(st.refused + st.shed)
	} else {
		bad += st.refused + st.shed
	}
	if bad > 0 {
		rep.violateN(bad, "%d wrong checksums, %d unexpected errors, %d refused, %d shed of %d arrivals",
			st.wrong, st.errored, st.refused, st.shed, st.offered)
	}
}

func runOpen(w *workload, cfg config, rep *report) {
	rep.Inputs["task"] = fmt.Sprintf("3 strands x %d xorshift rounds, %d inputs", w.spin, inputCount)
	rep.Inputs["arrivals"] = fmt.Sprintf("Poisson %.0f/s, %v queue %d", w.rate, w.svc.Policy, w.svc.QueueDepth)
	mayRefuse := w.svc.Policy == nowa.OverloadFailFast

	var s *server
	var setupS []float64
	for i := 0; i < cfg.setups(); i++ {
		if s != nil {
			s.close(rep)
		}
		t0 := time.Now()
		var err error
		if s, err = setupOpen(w, cfg, rep); err != nil {
			rep.violate("set-up: %v", err)
			return
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.Values["setup_s"] = median(setupS)

	untraced, tracedFor, _, _ := segments(cfg, false)
	rng := rand.New(rand.NewSource(cfg.seed))

	arr := schedule(rng, w.rate, untraced)
	st := summarise(arr, s.generate(arr, false))
	account(st, mayRefuse, rep)
	rep.Samples, rep.Spread = len(st.latencies), spread(st.latencies)
	rep.GenLag = &st.lag
	if q, v, ok := highestTail(st.latencies); ok {
		rep.Tail = fmt.Sprintf("p%g = %.1f us over the whole run", q*100, v)
	}
	rep.Values["ops_per_s"] = st.goodput
	rep.Values["p50_us"] = st.p50
	rep.Values["p99_us"] = st.p99
	rep.Values["slo_met_share"] = ratio(float64(st.met), float64(st.offered))
	// The generator must not be the slow part: when half its arrivals ran
	// later than a tenth of the median latency, the run measured the
	// generator. The gate is on the median lag, not the p99: the reference
	// host takes the processor away for a millisecond or more about 1 %
	// of the time, which alone puts the p99 lag in the milliseconds.
	if !cfg.tiny && st.lag.P50Us > 0.1*st.p50 {
		rep.invalid("generator lag p50 %.1f us exceeds 10%% of p50 %.1f us", st.lag.P50Us, st.p50)
	}

	if cfg.trace {
		tarr := schedule(rng, w.rate, tracedFor)
		c0, h0, i0, t0 := s.rt.Counters(), markHeap(), s.info(), time.Now()
		smp := startSampler(func() (int, int) {
			ss := s.info()
			return ss.Queued, ss.InFlight
		})
		tst := summarise(tarr, s.generate(tarr, true))
		samples := smp.Stop()
		elapsed := time.Since(t0)
		c1, h1, i1 := s.rt.Counters(), markHeap(), s.info()
		account(tst, mayRefuse, rep)

		counterMetrics(c0, c1, elapsed, rep.Values)
		summariseSamples(samples, rep.Values)
		rep.Values["service.submitted"] = float64(i1.Submitted - i0.Submitted)
		rep.Values["service.admitted_share"] = ratio(float64(i1.Admitted-i0.Admitted), float64(i1.Submitted-i0.Submitted))
		rep.Values["service.rejected"] = float64(i1.Rejected - i0.Rejected)
		rep.Values["service.shed"] = float64(i1.Shed - i0.Shed)
		rep.Values["service.retries"] = float64(int(i1.Submitted-i0.Submitted) - tst.offered)
		rep.Values["rt.heap_allocs_per_op"] = ratio(float64(h1.mallocs-h0.mallocs), float64(tst.offered))
		rep.Values["rt.gc_pause_total_ms"] = float64(h1.pauseNs-h0.pauseNs) / 1e6
		rep.Values["trace.overhead_share"] = ratio(tst.p50, st.p50) - 1
		rep.Stages = spanMetrics(tarr, rep.Values)
		if !rep.Stages.OK {
			rep.violate("stage sum: spans miss the client latency by up to %d ns (p50 %.1f vs %.1f us)",
				rep.Stages.MaxErrNs, rep.Stages.P50SumUs, rep.Stages.P50LatUs)
		}
		if err := writeTrace(cfg, rep, submissionSpans(tarr), len(tarr) > traceFileIDs, samples); err != nil {
			rep.violate("trace file: %v", err)
		}
	}

	s.close(rep)
}

func (s *server) info() nowa.ServiceStats {
	ss, _ := nowa.ServiceInfo(s.rt)
	return ss
}

// close drains the service and holds it to the conservation and leak bars.
func (s *server) close(rep *report) {
	nowa.Close(s.rt)
	checkService(s.info(), rep)
	checkClosed(s.rt, rep)
}

// stamps returns a completed, traced arrival's five span durations in ns,
// in spanNames order. They partition obs − due by construction: each
// starts where the one before ends. A worker may start the task before
// the submitting goroutine is back from Submit; the Submit span is then
// cut where the task starts, and the wait for the first run is zero.
func (a *arrival) stamps() [5]int64 {
	ret := min(a.ret, a.first)
	return [5]int64{a.enter - a.due, ret - a.enter, a.first - ret, a.last - a.first, a.obs - a.last}
}

// spanMetrics reports each span's p50 and p99 over the completed arrivals
// and checks that the spans sum to the client-side latency.
func spanMetrics(arr []arrival, vals map[string]float64) *stageCheck {
	var sums, lats []int64
	per := make([][]float64, len(spanNames))
	for i := range arr {
		a := &arr[i]
		if a.state != completed {
			continue
		}
		var sum int64
		for k, d := range a.stamps() {
			per[k] = append(per[k], us(d))
			sum += d
		}
		sums = append(sums, sum)
		lats = append(lats, a.obs-a.due)
	}
	for k, name := range spanNames {
		sort.Float64s(per[k])
		vals[name+"_p50"] = medianSorted(per[k])
		vals[name+"_p99"], _ = quantile(per[k], 0.99)
	}
	c := checkStages(sums, lats)
	return &c
}

// submissionSpans lays completed arrivals out as a tree per submission:
// submission (due → observed) with the five spans as its children.
func submissionSpans(arr []arrival) []span {
	var out []span
	for i := range arr {
		a := &arr[i]
		if i >= traceFileIDs {
			break
		}
		if a.state != completed {
			continue
		}
		root := len(out)
		out = append(out, span{Name: "submission", ID: int64(i), Parent: -1, StartNs: a.due, EndNs: a.obs})
		at := a.due
		for k, d := range a.stamps() {
			out = append(out, span{Name: spanNames[k], ID: int64(i), Parent: root, StartNs: at, EndNs: at + d})
			at += d
		}
	}
	return out
}
