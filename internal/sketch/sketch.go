// Package sketch implements the coarse summary layer of the query engine:
// a fixed-width PAA (piecewise aggregate approximation) sketch row per
// resident series, stored in its own contiguous arena alongside the other
// columnar artifacts, and an iSAX-style split-on-overflow bucket tree over
// those rows (tree.go). The engine reads the rows only, for banded DTW: each
// candidate's own row bounds its DTW distance before the kernel runs. The
// lock-step measures and PROUD read the dense coarse filter columns
// (coarse.go), which MUNICH and DUST run without — so the row carries what
// the DTW bound reads and nothing else. No query walks the tree; a corpus
// snapshot builds one on demand (corpus.Snapshot.Index) for the repository
// benchmark's layer probe.
//
// The row layout, for series length N summarised into W segments, is
//
//		| paaV(W) | kLo(W) | kHi(W) | v0 | vLast |
//
//	  - paaV holds the segment means of the raw observations (the tree
//	    splits on them, and the reverse DTW bound reads them);
//	  - kLo/kHi are the segment means of the LB_Keogh lower and upper
//	    envelopes (banded DTW bounds, Keogh's LB_PAA form);
//	  - v0/vLast are the exact first and last observations. Every banded DTW
//	    warping path contains the aligned pairs (0, 0) and (N-1, N-1), so the
//	    endpoint gaps (q_0-c_0)^2 + (q_{N-1}-c_{N-1})^2 (LB_Kim's first/last
//	    terms) add soundly to any envelope bound evaluated over the interior
//	    timestamps only.
//
// DTW sums the exact endpoint gaps against a row's v0 and vLast with
// MinDistSquared over the INTERIOR segments of [kLo, kHi] (the first and
// last segments are excluded so the endpoint terms are never
// double-counted): sum_{t in j} dist(q_t, [L_t, U_t])^2 >= len_j *
// dist(qbar_j, [Lbar_j, Ubar_j])^2 by Cauchy-Schwarz, and the whole chains
// under LB_Kim + LB_Keogh^2 <= DTW^2. The engine takes the max with the
// reverse bound (MinDistSquared of the row's paaV against the query's
// envelope means), sound by the symmetric argument, and sums both in one
// fused pass that matches the two MinDistSquared calls bit for bit. A
// bucket's region is the elementwise [min, max] of its members' rows;
// MinDistSquared over its paaV block is the classic lock-step PAA bound —
// per segment j, sum_{t in j} (q_t - c_t)^2 >= len_j (qbar_j - cbar_j)^2 by
// Jensen, and cbar_j lies inside [lo_j, hi_j] — which the filter columns
// apply row by row.
package sketch

import (
	"uncertts/internal/munich"
)

// Layout fixes the sketch-row geometry for one corpus: series length N
// summarised into W PAA segments. All rows of one arena share a Layout.
type Layout struct {
	// N is the series length.
	N int
	// W is the PAA segment count (1 <= W <= N).
	W int
	// Spans holds the W half-open timestamp ranges [lo, hi) the PAA
	// segments cover — the same segment geometry MUNICH envelopes use.
	Spans [][2]int
}

// NewLayout resolves the layout for series length n with w PAA segments
// (clamped to n; <= 0 adopts DefaultSegments). The coarse filter columns have
// their own, fixed geometry: see NewCoarse.
func NewLayout(n, w int) Layout {
	if w <= 0 {
		w = DefaultSegments
	}
	w = munich.ClampSegments(n, w)
	return Layout{N: n, W: w, Spans: munich.SegmentSpans(n, w)}
}

// DefaultSegments is the PAA segment count a zero configuration adopts
// (clamped to the series length). The envelope blocks need this resolution
// for the DTW bound to bite at bench scale.
const DefaultSegments = 64

// DefaultLeafCap is the bucket-tree leaf capacity a zero configuration
// adopts. Small leaves keep bucket regions tight, so far buckets are
// skipped wholesale without reading any member row.
const DefaultLeafCap = 16

// Stride is the sketch-row length: three W-wide blocks and the two endpoint
// observations.
func (l Layout) Stride() int { return 3*l.W + 2 }

// Column offsets into a sketch row (or a bucket region vector); the raw PAA
// block starts the row.
func (l Layout) OffKLo() int   { return l.W }
func (l Layout) OffKHi() int   { return 2 * l.W }
func (l Layout) OffV0() int    { return 3 * l.W }
func (l Layout) OffVLast() int { return 3*l.W + 1 }

// Interior returns the PAA spans with the first and last segments removed —
// the segment set DTW bounds sum over so the exact endpoint terms can be
// added without double counting. Nil when W < 3 (the endpoint terms then
// stand alone).
func (l Layout) Interior() [][2]int {
	if l.W < 3 {
		return nil
	}
	return l.Spans[1 : l.W-1]
}

// PAAInto writes the segment means of xs into dst (one per span). It never
// allocates.
func PAAInto(dst, xs []float64, spans [][2]int) {
	for j, sp := range spans {
		var acc float64
		for t := sp[0]; t < sp[1]; t++ {
			acc += xs[t]
		}
		dst[j] = acc / float64(sp[1]-sp[0])
	}
}

// FillRow computes one series' sketch row into dst (length Stride) from the
// artifacts the corpus already maintains: the observation vector and its
// LB_Keogh envelopes (summarised as segment means — LB_PAA). It never
// allocates.
func (l Layout) FillRow(dst, values, upper, lower []float64) {
	w := l.W
	PAAInto(dst[:w], values, l.Spans)
	PAAInto(dst[w:2*w], lower, l.Spans)
	PAAInto(dst[2*w:3*w], upper, l.Spans)
	dst[l.OffV0()] = values[0]
	dst[l.OffVLast()] = values[l.N-1]
}

// MinDistSquared returns a lower bound on the squared lock-step distance
// between any series whose segment means lie in the per-segment intervals
// [lo_j, hi_j] and the query whose segment means are qpaa. Per segment j of
// width len_j, Jensen gives sum_{t in j} (q_t - c_t)^2 >= len_j (qbar_j -
// cbar_j)^2, and cbar_j in [lo_j, hi_j] lower-bounds (qbar_j - cbar_j)^2 by
// the squared distance from qbar_j to the interval — the classic PAA
// MinDist, weighted by the exact span widths so ragged segmentations stay
// sound.
func MinDistSquared(qpaa, lo, hi []float64, spans [][2]int) float64 {
	var acc float64
	for j, sp := range spans {
		v := qpaa[j]
		var d float64
		switch {
		case v < lo[j]:
			d = lo[j] - v
		case v > hi[j]:
			d = v - hi[j]
		default:
			continue
		}
		acc += float64(sp[1]-sp[0]) * d * d
	}
	return acc
}

// MinDistSquaredBounded evaluates MinDistSquared under an abandonment limit:
// it returns (the exact sum, false) when the sum stays within limit, or (the
// partial sum, true) at the first segment that pushes the accumulation over
// — a partial sum over the limit already proves the full (nonnegative) sum
// is, so the boolean is identical to comparing the full value against limit.
// Most candidates cross the limit within a few segments, which is what makes
// the indexed sweep affordable on a single core.
func MinDistSquaredBounded(qpaa, lo, hi []float64, spans [][2]int, limit float64) (float64, bool) {
	var acc float64
	for j, sp := range spans {
		v := qpaa[j]
		var d float64
		switch {
		case v < lo[j]:
			d = lo[j] - v
		case v > hi[j]:
			d = v - hi[j]
		default:
			continue
		}
		acc += float64(sp[1]-sp[0]) * d * d
		if acc > limit {
			return acc, true
		}
	}
	return acc, false
}
