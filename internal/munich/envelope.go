package munich

import (
	"math"

	"uncertts/internal/uncertain"
)

// Envelope is the per-series summary of the MUNICH filter step: the
// per-timestamp minimal bounding intervals of a sample series, coarsened
// into fixed-width segments (a piecewise-constant envelope). Envelopes are
// the unit of incremental index maintenance — one can be built for a single
// series in isolation, so a mutable corpus keeps them up to date on insert,
// under the one segment count its corpus.Config fixes.
type Envelope struct {
	// Lo and Hi hold the per-segment envelope minimum and maximum.
	Lo, Hi []float64
}

// SegmentSpans returns the [start, end) timestamp range of each of the
// given number of segments for series of the given length. Segments are
// clamped to [1, length]; every envelope comparison must use the spans of
// the same (length, segments) geometry its envelopes were built with.
func SegmentSpans(length, segments int) [][2]int {
	segments = ClampSegments(length, segments)
	spans := make([][2]int, segments)
	for seg := 0; seg < segments; seg++ {
		spans[seg] = [2]int{seg * length / segments, (seg + 1) * length / segments}
	}
	return spans
}

// ClampSegments resolves a requested segment count against a series length:
// at least 1, at most the length.
func ClampSegments(length, segments int) int {
	if segments < 1 {
		segments = 1
	}
	if segments > length {
		segments = length
	}
	return segments
}

// BuildEnvelope summarises one sample series into a segment envelope.
func BuildEnvelope(s uncertain.SampleSeries, segments int) Envelope {
	n := s.Len()
	segments = ClampSegments(n, segments)
	e := Envelope{Lo: make([]float64, segments), Hi: make([]float64, segments)}
	BuildEnvelopeInto(e, s)
	return e
}

// BuildEnvelopeInto fills a pre-shaped envelope (Lo and Hi already sized to
// the clamped segment count) from a sample series — the allocation-free form
// arena-backed corpora use, with Lo and Hi pointing into envelope arenas.
func BuildEnvelopeInto(e Envelope, s uncertain.SampleSeries) {
	n := s.Len()
	segments := len(e.Lo)
	for seg := 0; seg < segments; seg++ {
		start := seg * n / segments
		end := (seg + 1) * n / segments
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := start; i < end; i++ {
			l, h := s.MinMaxAt(i)
			lo = math.Min(lo, l)
			hi = math.Max(hi, h)
		}
		e.Lo[seg] = lo
		e.Hi[seg] = hi
	}
}

// EnvelopeLowerBound returns a lower bound on every feasible Euclidean
// distance between materialisations of the two summarised series, computed
// segment-wise: within a segment the envelopes bound every per-timestamp
// interval, so the minimal per-timestamp gap between envelopes, squared and
// summed over the segment's width, lower-bounds the true squared distance.
// spans must be the SegmentSpans geometry both envelopes were built with.
func EnvelopeLowerBound(a, b Envelope, spans [][2]int) float64 {
	var acc float64
	for seg := range spans {
		var gap float64
		switch {
		case a.Lo[seg] > b.Hi[seg]:
			gap = a.Lo[seg] - b.Hi[seg]
		case b.Lo[seg] > a.Hi[seg]:
			gap = b.Lo[seg] - a.Hi[seg]
		default:
			continue
		}
		width := float64(spans[seg][1] - spans[seg][0])
		acc += gap * gap * width
	}
	return math.Sqrt(acc)
}
