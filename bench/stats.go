package main

import (
	"fmt"
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that
// is what the driver's spread check uses. It needs two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// repeatability measure of the benchmark contract. Fewer than two samples
// have no spread.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, with its label; below twenty samples no percentile
// qualifies and the maximum is reported as such.
func tail(v []float64) (float64, string) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, "none"
	}
	if n < 20 {
		return s[n-1], "max"
	}
	return s[n-11], fmt.Sprintf("p%.4g", 100*float64(n-10)/float64(n))
}
