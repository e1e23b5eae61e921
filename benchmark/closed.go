package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nowa"
	"nowa/internal/apps"
	"nowa/internal/sched"
)

// kernelRun is one rt.Run of one kernel, stamped from outside: around the
// Run call and, on a traced segment, at the first and last instruction of
// the root the harness wraps the kernel in.
type kernelRun struct {
	kernel    int // index into closedRun.kernels
	round     int
	call, ret int64
	rootStart int64 // 0 on an untraced segment
	rootEnd   int64
}

// closedRun is a set-up closed-loop workload: a warm runtime and prepared
// kernels, driven by one caller.
type closedRun struct {
	rt      nowa.Runtime
	kernels []apps.Benchmark
	rng     *rand.Rand // kernel order within a round
	rep     *report
	rounds  int

	// ref, when set, is the same workload on the serial elision; every
	// protagonist round is paired with a reference round next to it and
	// reported relative to it (see scaled).
	ref     *closedRun
	nominal time.Duration

	raw []float64 // unscaled latencies of the measured rounds, for the report

	// Summed over traced rounds.
	busyNs, mallocs, pauseNs int64
}

// setupClosed builds the kernels on rt, prepares every input and runs one
// verified warm-up round (vessel pool, stack pool, heap).
func setupClosed(kernels []apps.Benchmark, cfg config, rt nowa.Runtime, rep *report) *closedRun {
	st := &closedRun{rt: rt, kernels: kernels, rng: rand.New(rand.NewSource(cfg.seed)), rep: rep}
	for _, k := range st.kernels {
		k.Prepare()
	}
	st.round(false, nil)
	return st
}

// round runs every kernel once in seeded order and returns the time spent
// inside rt.Run — the round's latency. Prepare and Verify are the
// harness's and stay outside it.
func (st *closedRun) round(traced bool, runs *[]kernelRun) (latencyNs int64) {
	id := st.rounds
	st.rounds++
	// Collect what the harness's own Prepare calls left behind now, so
	// that collection does not run inside a timed Run.
	runtime.GC()
	var h0 heapMark
	if traced {
		h0 = markHeap()
	}
	for _, ki := range st.rng.Perm(len(st.kernels)) {
		k := st.kernels[ki]
		k.Prepare()
		kr := kernelRun{kernel: ki, round: id}
		st.rep.Attempted++
		if err := st.runKernel(k, traced, &kr); err != nil {
			st.rep.violate("round %d %s on %s: %v", id, k.Name(), st.rt.Name(), err)
		}
		latencyNs += kr.ret - kr.call
		if runs != nil {
			*runs = append(*runs, kr)
		}
	}
	if traced {
		h1 := markHeap()
		st.busyNs += latencyNs
		st.mallocs += int64(h1.mallocs - h0.mallocs)
		st.pauseNs += int64(h1.pauseNs - h0.pauseNs)
	}
	return latencyNs
}

// runKernel is one stamped rt.Run plus its output check; a strand panic
// is an error of the run, not of the harness.
func (st *closedRun) runKernel(k apps.Benchmark, traced bool, kr *kernelRun) (err error) {
	defer func() {
		if p := recover(); p != nil {
			kr.ret = now()
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	root := k.Run
	if traced {
		root = func(c nowa.Ctx) {
			kr.rootStart = now()
			k.Run(c)
			kr.rootEnd = now()
		}
	}
	kr.call = now()
	st.rt.Run(root)
	kr.ret = now()
	return k.Verify()
}

// scaled restates a time measured now at the reference host's nominal
// speed. The host's memory and floating-point speed changes by up to 1.9x
// for tens of seconds at a time (a serial matmul flips between 18 and
// 35 ms while an integer spin loop beside it does not move), and by more
// over minutes, so a raw round time does not repeat from run to run. The
// serial elision of the same round, run next to it, slows by the same
// factor; t over that reference repeats three times better, and times the
// workload's nominal serial round it reads in seconds again. Workloads
// whose kernels cannot run serially report raw times.
func (st *closedRun) scaled(t float64) float64 {
	if st.ref == nil {
		return t
	}
	return t * float64(st.nominal) / float64(st.ref.round(false, nil))
}

// measure runs rounds for budget (at least one) and returns their scaled
// latencies in ns.
func (st *closedRun) measure(budget time.Duration, traced bool, runs *[]kernelRun) []float64 {
	var lats []float64
	for start := time.Now(); len(lats) == 0 || time.Since(start) < budget; {
		raw := float64(st.round(traced, runs))
		st.raw = append(st.raw, raw)
		lats = append(lats, st.scaled(raw))
	}
	return lats
}

// throughput is rounds per second of (scaled) time inside rt.Run.
func throughput(latsNs []float64) float64 {
	var sum float64
	for _, l := range latsNs {
		sum += l
	}
	return ratio(float64(len(latsNs)), sum/1e9)
}

func runClosed(w *workload, cfg config, rep *report) {
	for _, k := range w.kernels(cfg.tiny) {
		rep.Inputs[k.Name()] = fmt.Sprintf("%+v", k) // a fresh kernel: its sizes, no data yet
	}
	var ref *closedRun
	if w.serialRound > 0 {
		kernels := w.kernels
		if !w.serialElision() {
			kernels = w.reference
		}
		ref = setupClosed(kernels(cfg.tiny), cfg, nowa.Serial(), rep)
		rep.Inputs["reference"] = fmt.Sprintf("times scaled to a reference round of %v", w.serialRound)
	}

	// Set-up, several times over; the last one is measured on.
	var st *closedRun
	var rt *sched.Runtime
	var setupS []float64
	for i := 0; i < cfg.setups(); i++ {
		if rt != nil {
			nowa.Close(rt)
			checkClosed(rt, rep)
		}
		t0 := time.Now()
		rt = newRuntime(workers(), w.eager)
		st = setupClosed(w.kernels(cfg.tiny), cfg, rt, rep)
		took := time.Since(t0).Seconds()
		st.ref, st.nominal = ref, w.serialRound
		setupS = append(setupS, st.scaled(took))
	}
	rep.Values["setup_s"] = median(setupS)

	untraced, tracedFor, t1ts, _ := segments(cfg, w.serialElision())
	lats := st.measure(untraced, false, nil)
	rep.Samples, rep.Spread = len(lats), spread(lats)
	rep.Values["ops_per_s"] = throughput(lats)
	rep.Values["p50_us"] = median(lats) / 1e3
	rep.Values["raw_p50_us"] = median(st.raw) / 1e3

	if cfg.trace {
		var runs []kernelRun
		c0 := rt.Counters()
		smp := startSampler(nil)
		tlats := st.measure(tracedFor, true, &runs)
		samples := smp.Stop()

		counterMetrics(c0, rt.Counters(), time.Duration(st.busyNs), rep.Values)
		summariseSamples(samples, rep.Values)
		rep.Values["rt.heap_allocs_per_op"] = ratio(float64(st.mallocs), float64(len(tlats)))
		rep.Values["rt.gc_pause_total_ms"] = float64(st.pauseNs) / 1e6
		rep.Values["trace.overhead_share"] = 1 - ratio(throughput(tlats), rep.Values["ops_per_s"])
		st.kernelMetrics(runs)
		if err := writeTrace(cfg, rep, st.spans(runs), st.rounds > traceFileIDs, samples); err != nil {
			rep.violate("trace file: %v", err)
		}
		if w.serialElision() {
			rep.Values["work_overhead"] = workOverhead(w, cfg, ref, t1ts)
		}
	}

	nowa.Close(rt)
	checkClosed(rt, rep)
}

// workOverhead is T1/Ts: a round on the protagonist with one worker over
// the round on the serial elision run right after it, so both see the same
// host; the median of the pairs.
func workOverhead(w *workload, cfg config, ref *closedRun, budget time.Duration) float64 {
	rt1 := newRuntime(1, false)
	one := setupClosed(w.kernels(cfg.tiny), cfg, rt1, ref.rep)
	var pairs []float64
	for start := time.Now(); len(pairs) == 0 || time.Since(start) < budget; {
		t1 := float64(one.round(false, nil))
		pairs = append(pairs, ratio(t1, float64(ref.round(false, nil))))
	}
	nowa.Close(rt1)
	checkClosed(rt1, ref.rep)
	return median(pairs)
}

// kernelMetrics reports each kernel's median Run time and the median
// run gap: the part of a Run call not spent in its root, which is what
// lies between one Run returning and the next root executing.
func (st *closedRun) kernelMetrics(runs []kernelRun) {
	perKernel := make([][]float64, len(st.kernels))
	var gaps []float64
	for _, kr := range runs {
		perKernel[kr.kernel] = append(perKernel[kr.kernel], float64(kr.ret-kr.call)/1e6)
		gaps = append(gaps, us((kr.rootStart-kr.call)+(kr.ret-kr.rootEnd)))
	}
	for i, k := range st.kernels {
		st.rep.Values["apps."+k.Name()+"_ms"] = median(perKernel[i])
	}
	st.rep.Values["span.run_gap_us"] = median(gaps)
}

// spans lays the traced runs out as a tree per round:
// round > apps.<kernel> (the Run call) > root (the kernel body).
func (st *closedRun) spans(runs []kernelRun) []span {
	var out []span
	roundAt := -1
	for _, kr := range runs {
		if kr.round >= traceFileIDs {
			break
		}
		if roundAt < 0 || out[roundAt].ID != int64(kr.round) {
			roundAt = len(out)
			out = append(out, span{Name: "round", ID: int64(kr.round), Parent: -1, StartNs: kr.call})
		}
		out[roundAt].EndNs = kr.ret
		out = append(out,
			span{Name: "apps." + st.kernels[kr.kernel].Name(), ID: int64(kr.round), Parent: roundAt, StartNs: kr.call, EndNs: kr.ret},
			span{Name: "root", ID: int64(kr.round), Parent: len(out), StartNs: kr.rootStart, EndNs: kr.rootEnd})
	}
	return out
}
