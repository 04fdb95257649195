package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. The top is p90: on a shared two-CPU virtual machine,
// CPU time stolen by other tenants moves p95 and p99 of the same code
// by multiples from run to run, far beyond any usable bound.
var tailLadder = []float64{90, 75, 50}

// beyond is the number of samples strictly above the nearest-rank
// p-th percentile of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100))
}

// tailPercentile picks the highest percentile on the ladder with at
// least ten samples beyond it. With fewer than twenty samples no
// percentile qualifies and it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when
// xs is empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s))/100)) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, the median and the third
// quartile by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the rule the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
