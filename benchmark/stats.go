package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), so the harness's own spread figures match the driver's.
// One sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile reads the p-quantile (0 < p < 1) of an ascending slice by
// nearest rank.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// reportable says whether the p-quantile of n samples has at least ten
// samples beyond it — the rule for the highest percentile a report may
// quote (choosing-metrics §1).
func reportable(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

// tailPercentile is percentile gated by reportable: an under-sampled
// tail reads 0 rather than a number that is mostly one outlier.
func tailPercentile(s []float64, p float64) float64 {
	if !reportable(len(s), p) {
		return 0
	}
	return percentile(s, p)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
