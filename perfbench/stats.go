package main

import (
	"cmp"
	"fmt"
	"slices"
)

// minBeyond is the fewest samples that must lie beyond a reported tail
// percentile: a p99 over fewer than 1000 samples rests on fewer than ten
// observations and is refused.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the pct-th percentile
// of n samples: the smallest k with at least pct% of the samples at or
// below the k-th smallest. Integer arithmetic keeps the boundary exact
// (990 of 1000 at p99).
func rank(n, pct int) int {
	k := (pct*n + 99) / 100
	return max(k, 1)
}

// beyond returns how many of n samples lie above the pct-th percentile.
func beyond(n, pct int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, pct)
}

// percentile returns the pct-th nearest-rank percentile of samples,
// refusing a percentile that fewer than minBeyond samples lie beyond
// (the median of a small sample is always allowed). samples is sorted in
// place.
func percentile(samples []float64, pct int) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%d of no samples", pct)
	}
	if pct > 50 && beyond(n, pct) < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", pct, n, beyond(n, pct), minBeyond)
	}
	slices.Sort(samples)
	return samples[rank(n, pct)-1], nil
}

// tailOrZero returns the pct-th percentile of samples, or 0 when the
// sample cannot carry it, so no tail is reported from too few samples.
func tailOrZero(samples []float64, pct int) float64 {
	v, err := percentile(samples, pct)
	if err != nil {
		return 0
	}
	return v
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that none of children covers: the
// parent's duration minus the union of the children clipped to it.
// Children may overlap one another (the coordinator fans out in
// parallel), so covered time is counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.start < c.end {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
