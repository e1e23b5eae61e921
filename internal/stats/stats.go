// Package stats implements the evaluation methodology of §V: arithmetic
// means of serial times, per-run speedups against that mean, geometric
// means and standard deviations of speedups.
package stats

import (
	"errors"
	"math"
	"time"
)

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n−1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// GeoMean returns the geometric mean; all inputs must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// DurationsToSeconds converts measured run times to float seconds.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Speedups computes S_i = T̄_s / T_i for each parallel run time, using the
// arithmetic mean of the serial runs as T̄_s (§V's methodology).
func Speedups(serial, parallel []float64) ([]float64, error) {
	if len(serial) == 0 || len(parallel) == 0 {
		return nil, errors.New("stats: need at least one serial and one parallel run")
	}
	ts := Mean(serial)
	if ts <= 0 {
		return nil, errors.New("stats: non-positive serial time")
	}
	out := make([]float64, len(parallel))
	for i, t := range parallel {
		if t <= 0 {
			return nil, errors.New("stats: non-positive parallel time")
		}
		out[i] = ts / t
	}
	return out, nil
}

// Summary is the per-configuration speedup statistic the paper plots:
// geometric mean with a standard deviation error bar.
type Summary struct {
	GeoMean float64
	StdDev  float64
	N       int
}

// Summarize computes the plotted statistic from per-run speedups.
func Summarize(speedups []float64) Summary {
	return Summary{GeoMean: GeoMean(speedups), StdDev: StdDev(speedups), N: len(speedups)}
}
