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

// Gaps writes into out sum_j len_j (q_j - x_j)^2 of the query's coarse row q
// against the rows x of positions lo, lo+1, ... of a column (row r at
// col[r*stride:], position p at row idx[p], or row p when idx is nil): by
// Jensen, per segment, a lower bound on the squared lock-step distance. It
// is one pass down the column, SSE2 on amd64 (gaps_amd64.s), gapsGo
// elsewhere. A row's sum runs to the end: at 16 terms an abandon branch
// mispredicts often enough to cost twice the multiply-adds it saves. Four
// accumulators, one per segment class mod 4, keep the adds off their own
// latency, and their order is fixed: the engine's rounding allowance holds
// for any order, but a bound an ulp away can flip a skip at the margin and
// the work golden pins every skip, so the assembly keeps gapsGo's order (the
// ragged tail into a0, the fold (a0+a1)+(a2+a3)) and therefore its bits.
func (c *Coarse) Gaps(q, col []float64, stride int, idx []int32, lo int, out []float64) {
	w := c.Weights
	if idx != nil {
		idx = idx[lo : lo+len(out)]
	} else {
		col = col[lo*stride:]
	}
	rows := 0 // the rows of col that hold W means
	if len(col) >= len(w) && stride >= max(len(w), 1) {
		rows = (len(col)-len(w))/stride + 1
	}
	if gaps(w, q[:len(w)], col, stride, rows, idx, out) < len(out) {
		panic("sketch: a coarse row outside its column")
	}
}

// gapsGo is the column pass in Go: out[i] is the gap of q against row idx[i]
// (row i when idx is nil) of col, for i up to the first row that is not one
// of col's rows, whose index it returns (len(out) when every row is).
func gapsGo(w, q, col []float64, stride, rows int, idx []int32, out []float64) int {
	for i := range out {
		r := i
		if idx != nil {
			r = int(idx[i])
		}
		if uint(r) >= uint(rows) {
			return i
		}
		x := col[r*stride:][:len(w)]
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
		out[i] = (a0 + a1) + (a2 + a3)
	}
	return len(out)
}
