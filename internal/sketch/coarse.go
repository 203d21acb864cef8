package sketch

import "uncertts/internal/munich"

// The coarse layout is the geometry of the dense filter columns the corpus
// keeps beside the sketch rows: per series and per vector kind (raw
// observations, UMA, UEMA) the CoarseSegments segment means, packed into one
// contiguous n x Wc matrix each. The lock-step measures read them as tier 0
// of the linear scan — a 16-term Jensen lower bound per candidate, 128 bytes
// apart, before the kilobyte-stride series row is touched.
//
// Spans come from munich.SegmentSpans(n, min(n, CoarseSegments)), so every
// length is defined: N < 16 degenerates to one segment per timestamp (the
// bound is then the exact squared distance), and an N not divisible by 16
// gets ragged spans whose exact widths weight the bound.

// CoarseSegments is the segment count Wc of the filter columns. 16 measured
// fastest on the bench corpus: 8 admits too many candidates to the kernel,
// 32 doubles the bytes every candidate costs before it can be dropped.
const CoarseSegments = 16

// Coarse is the filter-column geometry for one series length.
type Coarse struct {
	// Spans holds the half-open timestamp range of each segment.
	Spans [][2]int
	// Weights holds the span widths, the Jensen weights of the bound.
	Weights []float64
	// MaxSpan is the widest span — the longest summation behind a stored
	// mean, which scales its rounding error.
	MaxSpan float64
}

// NewCoarse resolves the coarse layout for series length n.
func NewCoarse(n int) Coarse {
	spans := munich.SegmentSpans(n, CoarseSegments)
	c := Coarse{Spans: spans, Weights: make([]float64, len(spans))}
	for j, sp := range spans {
		c.Weights[j] = float64(sp[1] - sp[0])
		c.MaxSpan = max(c.MaxSpan, c.Weights[j])
	}
	return c
}

// W returns the segment count (min(n, CoarseSegments)).
func (c Coarse) W() int { return len(c.Spans) }

// GapSquared returns sum_j len_j (q_j - x_j)^2 over two coarse rows — by
// Jensen, per segment, a lower bound on the squared lock-step distance
// between the vectors the rows summarise. The sum deliberately runs to the
// end instead of abandoning once a limit is crossed: at 16 terms the
// data-dependent exit branch mispredicts often enough to cost twice what the
// remaining multiply-adds do. Four independent accumulators keep the adds
// from serialising on their own latency; the summation order is the bound's
// own business (no answer is computed here), and the rounding allowance the
// engine subtracts holds for any order.
func (c *Coarse) GapSquared(q, x []float64) float64 {
	w := c.Weights
	q, x = q[:len(w)], x[:len(w)]
	var a0, a1, a2, a3 float64
	j := 0
	for ; j+4 <= len(w); j += 4 {
		d0, d1, d2, d3 := q[j]-x[j], q[j+1]-x[j+1], q[j+2]-x[j+2], q[j+3]-x[j+3]
		a0 += w[j] * d0 * d0
		a1 += w[j+1] * d1 * d1
		a2 += w[j+2] * d2 * d2
		a3 += w[j+3] * d3 * d3
	}
	for ; j < len(w); j++ {
		d := q[j] - x[j]
		a0 += w[j] * d * d
	}
	return (a0 + a1) + (a2 + a3)
}
