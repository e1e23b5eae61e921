package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !approx(got, 2.138, 0.001) {
		t.Errorf("StdDev = %g", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single-sample stddev should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !approx(got, 2, 1e-12) {
		t.Errorf("GeoMean = %g", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("GeoMean of negative not NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("GeoMean(nil) not NaN")
	}
}

func TestSpeedups(t *testing.T) {
	s, err := Speedups([]float64{10, 10}, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 5 || s[1] != 2 {
		t.Errorf("speedups = %v", s)
	}
	if _, err := Speedups(nil, []float64{1}); err == nil {
		t.Error("empty serial accepted")
	}
	if _, err := Speedups([]float64{1}, []float64{0}); err == nil {
		t.Error("zero parallel time accepted")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 2, 2})
	if s.GeoMean != 2 || s.StdDev != 0 || s.N != 3 {
		t.Errorf("summary = %+v", s)
	}
}

func TestDurationsToSeconds(t *testing.T) {
	out := DurationsToSeconds([]time.Duration{time.Second, 500 * time.Millisecond})
	if out[0] != 1 || out[1] != 0.5 {
		t.Errorf("out = %v", out)
	}
}

// Property: GeoMean(xs) lies between min and max; scaling inputs by k
// scales the geomean by k.
func TestQuickGeoMeanProperties(t *testing.T) {
	f := func(raw []uint16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01
		}
		k := float64(kRaw)/16 + 0.5
		g := GeoMean(xs)
		if g < slices.Min(xs)-1e-9 || g > slices.Max(xs)+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * k
		}
		return approx(GeoMean(scaled), g*k, 1e-6*g*k+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: speedups against a constant serial time are inversely ordered
// with the parallel times.
func TestQuickSpeedupMonotonicity(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		ts := make([]float64, len(raw))
		for i, r := range raw {
			ts[i] = float64(r)/1000 + 0.001
		}
		s, err := Speedups([]float64{1}, ts)
		if err != nil {
			return false
		}
		for i := 1; i < len(ts); i++ {
			if (ts[i] > ts[i-1]) != (s[i] < s[i-1]) && ts[i] != ts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
