package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestEveryWorkloadTiny runs each workload traced at test size — a traced
// run also measures the untraced third, the counters, the spans and the
// whole layer ledger — and checks outputs and names, never timings.
func TestEveryWorkloadTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: 0.3, trace: true, tiny: true, outDir: t.TempDir()}
			rep := runWorkload(w, cfg)
			if !rep.correct() || len(rep.Violations) > 0 {
				t.Fatalf("failed %d of %d, valid %v: %v", rep.Failed, rep.Attempted, rep.Valid, rep.Violations)
			}
			if rep.Attempted < 1 || rep.Samples < 1 {
				t.Errorf("attempted %d, samples %d", rep.Attempted, rep.Samples)
			}

			traced := rep.resultLine()
			checkNames(t, traced.Metrics, perLayer)
			rep.Trace = false
			untraced := rep.resultLine()
			checkNames(t, untraced.Metrics, endToEnd)
			for name, m := range untraced.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %g on %s; it must never be 0", name, m.Value, w.name)
				}
			}

			// The metrics that say which layers a workload crossed.
			v := rep.Values
			if (v["nowa.blocked_waits"] > 0) != (w.name == "block-pipeline") {
				t.Errorf("nowa.blocked_waits = %g", v["nowa.blocked_waits"])
			}
			if w.closed() {
				for _, k := range w.kernels(true) {
					if v["apps."+k.Name()+"_ms"] <= 0 {
						t.Errorf("apps.%s_ms not measured", k.Name())
					}
				}
				if (v["work_overhead"] > 0) != w.serialElision() {
					t.Errorf("work_overhead = %g, serial elision: %v", v["work_overhead"], w.serialElision())
				}
			} else {
				if rep.Stages == nil || !rep.Stages.OK {
					t.Errorf("stage check = %+v", rep.Stages)
				}
				if v["service.submitted"] <= 0 || v["span.run_us_p50"] <= 0 {
					t.Errorf("service.submitted = %g, span.run_us_p50 = %g", v["service.submitted"], v["span.run_us_p50"])
				}
			}
			for _, probe := range []string{"deque.cl.push_pop_ns", "sched.spawn_sync_ns", "service.reject_call_ns", "nowa.channel.pingpong_us"} {
				if v[probe] <= 0 {
					t.Errorf("ledger probe %s = %g", probe, v[probe])
				}
			}

			var tf traceFile
			data, err := os.ReadFile(cfg.outDir + "/" + w.name + ".trace.json")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(tf.Spans), err)
			}
			for i, sp := range tf.Spans {
				if sp.EndNs < sp.StartNs || sp.Parent >= i || (sp.Parent >= 0 && tf.Spans[sp.Parent].ID != sp.ID) {
					t.Fatalf("span %d malformed: %+v", i, sp)
				}
			}
		})
	}
}

// checkNames holds a result line to its list: every name once, with the
// listed unit, nothing else.
func checkNames(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics printed, %d listed", len(got), len(defs))
	}
	for _, d := range defs {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: printed %v %q, listed unit %q", d.Name, ok, m.Unit, d.Unit)
		}
	}
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json to the driver's limits
// and to the lists in metrics.go and workloads.go.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var have []string
	for k := range keys {
		have = append(have, k)
	}
	sort.Strings(have)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(have, want) {
		t.Errorf("keys %v, want exactly %v", have, want)
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) > 8 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: over 8/16/128", len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer))
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	match := func(list string, file []benchMetric, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in the file, %d in code", list, len(file), len(code))
		}
		for i, m := range file {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if d := code[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: file has %+v, code %+v", list, i, m, d)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if bounded && (m.Bound < 0.03 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside [0.03, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	match("end_to_end", bf.EndToEnd, endToEnd, true)
	match("per_layer", bf.PerLayer, perLayer, false)
	if s := bf.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", s)
	}
}

func TestNormaliseArgs(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"--workload fj-fine --seed 3 --seconds 10 --trace 0", "--workload fj-fine --seed 3 --seconds 10 -trace=false"},
		{"--trace 1 --seed 3", "-trace=true --seed 3"},
		{"-trace -repeat", "-trace -repeat"},
		{"-seed 2 -trace", "-seed 2 -trace"},
		{"-trace=1", "-trace=1"},
	} {
		if got := strings.Join(normaliseArgs(strings.Fields(tc.in)), " "); got != tc.want {
			t.Errorf("normaliseArgs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
