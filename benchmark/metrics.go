package main

import "nowa/internal/deque"

// metricDef names one reported metric. The lists below are the single
// place a metric's name and unit are written down in code; BENCHMARK.json
// repeats them (with the regression bounds) and the package test fails
// when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them on an untraced run, so each is defined for a
// closed-loop round and for an open-loop submission alike:
//
//   - an operation is one verified round of kernels (closed loop) or one
//     submission that resolved nil with the right checksum (open loop);
//   - its latency is the time inside rt.Run summed over the round, or the
//     time from the arrival's due instant to its waiter resuming.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
}

// dequeAlgs are the four ledger rows of the deque layer.
var dequeAlgs = []struct {
	key string
	alg deque.Algorithm
}{
	{"cl", deque.CL}, {"the", deque.THE}, {"abp", deque.ABP}, {"locked", deque.Locked},
}

// kernelNames are the closed-loop kernels a traced run times one by one.
var kernelNames = []string{
	"fib", "nqueens", "integrate", "quicksort",
	"matmul", "lu", "heat", "strassen", "cholesky", "fft",
	"pipeline", "bfs",
}

// spanNames are the five spans that partition a submission's latency, in
// the order they happen.
var spanNames = []string{
	"span.gen_lag_us", "span.submit_call_us", "span.submit_to_first_run_us",
	"span.run_us", "span.done_to_observed_us",
}

// perLayer are the report-only metrics of a traced run: the end-to-end
// figures that are not defined on every workload or do not repeat within
// a tenth on the reference host, the layer ledger, the harness spans, the
// counter deltas and the process figures. A metric that does not apply to
// a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{name, unit, better}) }

	// Demoted end-to-end figures (measured on the untraced third).
	add("work_overhead", "ratio", "lower")
	add("p99_us", "us", "lower")
	add("slo_met_share", "share", "higher")
	add("failed_share", "share", "lower")

	// Layer ledger.
	for _, d := range dequeAlgs {
		add("deque."+d.key+".push_pop_ns", "ns", "lower")
		add("deque."+d.key+".steal_ns", "ns", "lower")
	}
	add("deque.cl.steal_contended_ns", "ns", "lower")
	add("deque.the.steal_contended_ns", "ns", "lower")
	add("deque.cl.steal_success_share", "share", "higher")
	add("core.join.waitfree_cycle_ns", "ns", "lower")
	add("core.join.locked_cycle_ns", "ns", "lower")
	add("core.wakequeue.push_pop_ns", "ns", "lower")
	add("cqs.enqueue_resume_ns", "ns", "lower")
	add("cqs.enqueue_abort_ns", "ns", "lower")
	add("cqs.sem.acquire_release_ns", "ns", "lower")
	add("cactus.get_put_local_ns", "ns", "lower")
	add("cactus.get_put_global_ns", "ns", "lower")
	add("sched.spawn_sync_ns", "ns", "lower")
	add("sched.spawn_sync_eager_ns", "ns", "lower")
	add("sched.sync_empty_ns", "ns", "lower")
	add("sched.spawn_allocs_per_op", "count", "lower")
	add("sched.spawn_bytes_per_op", "B", "lower")
	add("sched.gosched_floor_ns", "ns", "lower")
	add("sched.run_roundtrip_us", "us", "lower")
	add("sched.counters_call_ns", "ns", "lower")
	add("service.submit_roundtrip_us", "us", "lower")
	add("service.submit_call_ns", "ns", "lower")
	add("service.reject_call_ns", "ns", "lower")
	add("service.info_call_ns", "ns", "lower")
	add("resilience.do_overhead_ns", "ns", "lower")
	add("nowa.future.await_done_ns", "ns", "lower")
	add("nowa.future.handoff_us", "us", "lower")
	add("nowa.channel.send_recv_ns", "ns", "lower")
	add("nowa.channel.pingpong_us", "us", "lower")
	add("nowa.barrier.round_us", "us", "lower")

	// Harness spans.
	for _, s := range spanNames {
		add(s+"_p50", "us", "lower")
		add(s+"_p99", "us", "lower")
	}
	for _, k := range kernelNames {
		add("apps."+k+"_ms", "ms", "lower")
	}
	add("span.run_gap_us", "us", "lower")

	// Counter deltas over the traced third.
	add("sched.spawns", "count", "lower")
	add("sched.spawns_per_s", "1/s", "higher")
	add("sched.inline_share", "share", "higher")
	add("sched.promoted_share", "share", "lower")
	add("sched.steals", "count", "lower")
	add("sched.steal_success_share", "share", "higher")
	add("sched.suspensions", "count", "lower")
	add("sched.thief_parks", "count", "lower")
	add("sched.thief_wakeups", "count", "lower")
	add("sched.wakeups_lost", "count", "lower")
	add("cactus.local_get_share", "share", "higher")
	add("nowa.blocked_waits", "count", "lower")
	add("nowa.resumed_share", "share", "higher")
	add("nowa.aborted_waits", "count", "lower")
	add("service.submitted", "count", "higher")
	add("service.admitted_share", "share", "higher")
	add("service.rejected", "count", "lower")
	add("service.shed", "count", "lower")
	add("service.retries", "count", "lower")
	add("service.queue_depth_p50", "count", "lower")
	add("service.queue_depth_max", "count", "lower")
	add("service.inflight_max", "count", "lower")

	// Process.
	add("rt.peak_rss_mb", "MB", "lower")
	add("rt.heap_allocs_per_op", "count", "lower")
	add("rt.gc_pause_total_ms", "ms", "lower")
	add("rt.goroutines_peak", "count", "lower")
	add("trace.overhead_share", "share", "lower")
	return m
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders the listed metrics from the measured values; a metric the
// run did not measure reads 0.
func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: finite(vals[d.Name]), Unit: d.Unit}
	}
	return out
}
