package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 therefore needs 1 000 samples and a p999 10 000.
const minBeyond = 10

// quantile reads the q-quantile (nearest rank) from an ascending slice.
// It refuses — ok is false — when fewer than minBeyond samples lie
// beyond the rank on the tail side of q, so no caller can print a tail
// the sample cannot carry.
func quantile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	// The epsilon keeps a product like 0.999*10000, which floating point
	// puts a hair above 9990, on its own rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if q < 0.5 {
		beyond = rank - 1
	}
	if beyond < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// tailLadder lists the percentiles the reporter may print, lowest first.
var tailLadder = []float64{0.9, 0.95, 0.99, 0.999, 0.9999}

// highestTail returns the highest percentile of tailLadder that the
// sample supports, with its value.
func highestTail(sorted []float64) (q, v float64, ok bool) {
	for _, cand := range tailLadder {
		if x, good := quantile(sorted, cand); good {
			q, v, ok = cand, x, true
		}
	}
	return q, v, ok
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middles for an
// even count), 0 for an empty slice. Unlike quantile it accepts any
// count: it summarises a handful of repeats, not a latency tail.
func median(xs []float64) float64 { return medianSorted(sortedCopy(xs)) }

// medianSorted is median for a slice already in ascending order.
func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the driver computes its spreads with. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m, m
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median — the repeatability figure a bound is set against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// relDiff is |a-b| as a share of a, the -repeat comparison.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Abs(a)
}

// stageCheck is the outcome of checking that per-submission spans
// partition the client-side latency.
type stageCheck struct {
	Submissions int     `json:"submissions"`
	MaxErrNs    int64   `json:"max_err_ns"` // largest |Σ spans − latency| of one submission
	P50SumUs    float64 `json:"p50_sum_us"`
	P50LatUs    float64 `json:"p50_latency_us"`
	OK          bool    `json:"ok"`
}

// checkStages verifies the stage-sum identity: for every submission the
// spans add up (sumsNs) to its latency within 1 µs, and the median of the
// sums is within 2 % of the median latency.
func checkStages(sumsNs, latencyNs []int64) stageCheck {
	c := stageCheck{Submissions: len(latencyNs)}
	if len(sumsNs) != len(latencyNs) || len(latencyNs) == 0 {
		return c
	}
	sums := make([]float64, len(latencyNs))
	lats := make([]float64, len(latencyNs))
	for i, sum := range sumsNs {
		c.MaxErrNs = max(c.MaxErrNs, abs64(sum-latencyNs[i]))
		sums[i], lats[i] = us(sum), us(latencyNs[i])
	}
	c.P50SumUs, c.P50LatUs = median(sums), median(lats)
	c.OK = c.MaxErrNs <= 1000 && relDiff(c.P50LatUs, c.P50SumUs) <= 0.02
	return c
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
