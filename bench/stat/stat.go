// Package stat holds the arithmetic the harness and the layer probe share:
// percentiles, quartiles, and span self time.
package stat

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p% of
// the samples at or below it. NaN when the slice is empty.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The small slack keeps a product like 99.9% x 10000 = 9990.000000000002 from
// rounding up a whole rank.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// Beyond is how many of n samples lie strictly above the p-th percentile's
// rank. A percentile is reported only where at least ten samples lie beyond
// it; see Supports.
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// Supports reports whether n samples put at least ten beyond the p-th
// percentile, the rule for reporting a tail percentile at all.
func Supports(n int, p float64) bool { return Beyond(n, p) >= 10 }

// Median returns the median of the values (not necessarily sorted), the mean
// of the two middle ones for an even count. NaN when empty.
func Median(values []float64) float64 {
	_, med, _ := Quartiles(values)
	return med
}

// Mean returns the arithmetic mean. NaN when empty.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Quartiles returns the first quartile, median and third quartile exactly as
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// a spread computed here matches the one the driver computes. With a single
// value all three equal it; NaN when empty.
func Quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 3 cut points, i = 1..3
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// Spread is the inter-quartile distance as a share of the median: the
// steadiness figure each end-to-end metric is judged by.
func Spread(values []float64) float64 {
	q1, med, q3 := Quartiles(values)
	if med == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / med)
}

// Span is one timed call into a layer. Spans of one request share Request;
// Parent is the ID of the span that caused this one (0 for a root).
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// SelfTimes returns each span's self time in nanoseconds, keyed by span ID:
// its duration minus the part of its interval that its direct children
// cover. Overlapping children are counted once, and a child is clipped to
// its parent's interval.
func SelfTimes(spans []Span) map[int]int64 {
	byID := make(map[int]Span, len(spans))
	children := make(map[int][]Span)
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[int]int64, len(spans))
	for id, sp := range byID {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), sp.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, sp.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = sp.EndNS - sp.StartNS - covered
	}
	return self
}
