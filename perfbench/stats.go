package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the tail rule: op_tail_ms is the highest percentile that
// still has at least this many samples above it.
const tailBeyond = 10

// tail applies the tail rule to ascending-sorted samples. It returns the
// order statistic with exactly tailBeyond samples above it and its
// nearest-rank percentile, 100·(n−tailBeyond)/n. ok is false when there
// are too few samples for the rule.
func tail(sorted []float64) (value, pct float64, ok bool) {
	n := len(sorted)
	if n <= tailBeyond {
		return 0, 0, false
	}
	i := n - tailBeyond - 1
	return sorted[i], 100 * float64(i+1) / float64(n), true
}

// median of ascending-sorted samples (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// medianOf is median over an unsorted slice.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// interval is a half-open time range [start, end) relative to some origin.
type interval struct{ start, end time.Duration }

// coverage is the length of the union of the intervals clipped to within.
func coverage(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// span is one timed call at a layer boundary. Parent indexes the enclosing
// span in the same op's list (-1 for the op's root).
type span struct {
	name   string
	iv     interval
	parent int
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.iv)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for i, s := range spans {
		out[s.name] += (s.iv.end - s.iv.start) - coverage(s.iv, children[i])
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
