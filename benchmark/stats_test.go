package main

import (
	"math"
	"testing"
)

// ramp returns 1, 2, …, n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.50, 500, true},
		{1000, 0.99, 990, true}, // exactly ten beyond
		{999, 0.99, 0, false},   // nine beyond
		{1000, 0.999, 0, false}, // one beyond
		{10000, 0.999, 9990, true},
		{300, 0.999, 0, false}, // the 300-sample p999 the old reports printed
		{100, 0.9, 90, true},
		{1000, 0.01, 0, false}, // low tail: nine below
		{1100, 0.01, 11, true},
		{0, 0.5, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
	} {
		got, ok := quantile(ramp(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("quantile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestHighestTailFollowsTheSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{50, 0, 0, false},
		{100, 0.9, 90, true},
		{999, 0.95, 950, true},
		{1000, 0.99, 990, true},
		{10000, 0.999, 9990, true},
		{100000, 0.9999, 99990, true},
	} {
		q, v, ok := highestTail(ramp(tc.n))
		if q != tc.q || v != tc.want || ok != tc.ok {
			t.Errorf("highestTail(1..%d) = p%g %g %v; want p%g %g %v", tc.n, q*100, v, ok, tc.q*100, tc.want, tc.ok)
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %g", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ramp(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q2, q3 = quartiles(xs)
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles(pi) = %g %g %g", q1, q2, q3)
	}
	if xs[0] != 3 || xs[9] != 3 {
		t.Error("quartiles reordered its input")
	}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want (5.25-1.75)/3.5", s)
	}
	// A normal sample's quartiles sit 0.6745 sigma either side of the mean.
	var norm []float64
	for i := 1; i < 2000; i++ {
		norm = append(norm, 100+10*normalQuantile(float64(i)/2000))
	}
	q1, q2, q3 = quartiles(norm)
	if math.Abs(q2-100) > 0.01 || math.Abs((q3-q1)-2*6.745) > 0.05 {
		t.Errorf("normal quartiles = %g %g %g", q1, q2, q3)
	}
}

// normalQuantile is the standard normal's inverse CDF by bisection on erf.
func normalQuantile(p float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if 0.5*(1+math.Erf(mid/math.Sqrt2)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// handBuilt is one submission whose five spans are 0.5, 1, 7.5, 20 and
// 1 µs: due at 1 µs, observed at 31 µs.
func handBuilt() arrival {
	return arrival{due: 1000, enter: 1500, ret: 2500, first: 10000, last: 30000, obs: 31000, state: completed}
}

func TestStageSumOnHandBuiltTrace(t *testing.T) {
	a := handBuilt()
	if got, want := a.stamps(), [5]int64{500, 1000, 7500, 20000, 1000}; got != want {
		t.Fatalf("stamps = %v, want %v", got, want)
	}
	if c := checkStages([]int64{30000}, []int64{a.obs - a.due}); !c.OK || c.MaxErrNs != 0 || c.P50SumUs != 30 {
		t.Errorf("exact partition rejected: %+v", c)
	}
	// One span 2 µs short: over the 1 µs per-submission allowance.
	if c := checkStages([]int64{28000}, []int64{30000}); c.OK || c.MaxErrNs != 2000 {
		t.Errorf("2 us gap accepted: %+v", c)
	}
	// Every submission within 1 µs, yet the medians 9 % apart.
	if c := checkStages([]int64{9100, 9100, 9100}, []int64{10000, 10000, 10000}); c.OK {
		t.Errorf("9 %% median gap accepted: %+v", c)
	}
	if c := checkStages(nil, nil); c.OK {
		t.Error("empty trace accepted")
	}
}

func TestSpanMetricsAndTraceTree(t *testing.T) {
	arr := []arrival{handBuilt(), {state: refused}, handBuilt()}
	vals := map[string]float64{}
	c := spanMetrics(arr, vals)
	if !c.OK || c.Submissions != 2 {
		t.Fatalf("stage check = %+v", c)
	}
	wantP50 := []float64{0.5, 1, 7.5, 20, 1}
	var sum float64
	for i, name := range spanNames {
		if vals[name+"_p50"] != wantP50[i] {
			t.Errorf("%s_p50 = %g, want %g", name, vals[name+"_p50"], wantP50[i])
		}
		if vals[name+"_p99"] != 0 {
			t.Errorf("%s_p99 = %g from two samples", name, vals[name+"_p99"])
		}
		sum += vals[name+"_p50"]
	}
	if sum != 30 {
		t.Errorf("span p50s sum to %g us, latency is 30", sum)
	}
	spans := submissionSpans(arr)
	if len(spans) != 12 {
		t.Fatalf("%d spans, want 2 x (1 + 5)", len(spans))
	}
	for i, sp := range spans {
		root := i / 6 * 6
		switch {
		case i == root && (sp.Parent != -1 || sp.Name != "submission" || sp.EndNs-sp.StartNs != 30000):
			t.Errorf("span %d is not a 30 us root: %+v", i, sp)
		case i != root && (sp.Parent != root || sp.Name != spanNames[i-root-1] || sp.StartNs != spans[i-1].EndNs && i-root > 1):
			t.Errorf("span %d does not follow its sibling under %d: %+v", i, root, sp)
		}
	}
	if spans[6].ID != 2 {
		t.Errorf("second submission's spans carry id %d, want its arrival index 2", spans[6].ID)
	}
}
