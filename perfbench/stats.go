package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so p99
// needs 1000 samples and p50 needs 20.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and false when fewer than minTail samples lie above it. xs need not
// be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty slice. It carries no
// sample-count rule: it summarizes per-round values, of which a run has
// only a few.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reading 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a closed time span [start, end].
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (a fan-out) or stick
// out of the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
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
