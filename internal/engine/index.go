package engine

import (
	"cmp"
	"math"
	"slices"

	"uncertts/internal/arena"
	"uncertts/internal/corpus"
	"uncertts/internal/sketch"
)

// The DTW prefilter. Banded DTW is not lock-step, so tier 0's Jensen bound
// does not hold for it; its bound reads the candidate's own row of the
// corpus' sketch column instead (internal/sketch), which summarises the very
// series and LB_Keogh envelopes the engine scans under the corpus' own band:
// the exact endpoint gaps (every warping path aligns (0,0) and (N-1,N-1) —
// LB_Kim's first/last terms, read from the row's v0/vLast columns) plus the
// larger of two envelope bounds over the interior segments, the query's PAA
// against the row's envelope means (LB_Keogh's LB_PAA form) and the row's
// raw PAA against the query's own envelope means (the reverse bound); both
// chain under DTW^2.
//
// The source is the one every measure scans — every position but the
// query's — and only its order differs. A range query sweeps it in position
// order and tests each row's bound against the static cut (rowSkip). A top-k
// query first computes every row's bound in one pass over the column and
// sweeps the candidates best-first by it: the cut tightens on the nearest
// candidates first, and the long tail then falls at an O(1) compare of its
// stored bound. Best-first beats tier 0's seed-then-position-order shape
// here because a DTW refine is dear: refining the nearest few first is what
// keeps the rest of the sweep from starting DPs the final cut would have
// spared. Every skip is backed by a bound sound under indexBoundMargin, so
// answers are bit-identical to the scan without it (Options.NoIndex), and
// the Stats identity Candidates + SeriesSkippedByIndex = queries * (N-1)
// holds as for tier 0.

// defaultIndexThreshold is the snapshot size below which no prefilter is
// engaged (Options.IndexThreshold zero value): under ~a thousand resident
// series the plain scan wins.
const defaultIndexThreshold = 1024

// engineIndex is DTW's prefilter: the sketch column and its row layout.
type engineIndex struct {
	lay  sketch.Layout
	rows rows // the sketch rows by position
}

// resolveIndex decides which prefilter, if any, serves the engine's queries:
// tier 0 (the filter columns) for the lock-step measures and PROUD, the
// sketch rows for DTW, neither for DUST and MUNICH. Both summarise the very
// arena columns the engine scans, under the very geometry it scans them
// with, so they are sound for every engine.
func (e *Engine) resolveIndex(cols *corpus.Columns) {
	if e.opts.NoPrune || e.opts.NoIndex {
		return
	}
	threshold := e.opts.IndexThreshold
	if threshold == 0 {
		threshold = defaultIndexThreshold
	}
	if threshold > 0 && e.snap.Len() < threshold {
		return
	}
	t0 := func(means arena.Matrix) *tier0 {
		return &tier0{geo: sketch.NewCoarse(e.snap.SeriesLen()), means: column(means, cols.Rows)}
	}
	switch e.opts.Measure {
	case MeasureEuclidean, MeasurePROUD:
		e.t0 = t0(cols.CoarseV)
	case MeasureUMA:
		e.t0 = t0(cols.CoarseU)
	case MeasureUEMA:
		e.t0 = t0(cols.CoarseE)
	case MeasureDTW:
		e.idx = &engineIndex{lay: sketch.NewLayout(e.snap.SeriesLen(), sketch.DefaultSegments), rows: column(cols.Sketch, cols.Rows)}
	}
}

// kim is the exact endpoint term of the DTW bound: the squared gaps of the
// aligned pairs (0, 0) and (N-1, N-1), which are one pair when N = 1.
func (e *Engine) kim(pq *prepared, row []float64) float64 {
	d0 := pq.vec[0] - row[e.idx.lay.OffV0()]
	if len(pq.vec) == 1 {
		return d0 * d0
	}
	dn := pq.vec[len(pq.vec)-1] - row[e.idx.lay.OffVLast()]
	return d0*d0 + dn*dn
}

// dtwLB2 lower-bounds the squared banded DTW distance between the query and
// the series whose sketch row is row. The endpoint gaps are exact, so the
// envelope bounds sum over the interior segments only (the edge segments are
// excluded so the endpoint timestamps are never counted twice).
func (e *Engine) dtwLB2(pq *prepared, row []float64) float64 {
	lay := e.idx.lay
	w := lay.W
	kim := e.kim(pq, row)
	interior := lay.Interior()
	if interior == nil {
		return kim
	}
	fwd := sketch.MinDistSquared(pq.qpaa[1:w-1], row[lay.OffKLo()+1:lay.OffKLo()+w-1], row[lay.OffKHi()+1:lay.OffKHi()+w-1], interior)
	rev := sketch.MinDistSquared(row[1:w-1], pq.qenvLo[1:w-1], pq.qenvHi[1:w-1], interior)
	return kim + math.Max(fwd, rev)
}

// rowSkip is dtwLB2's decision against a static cut, phrased so the
// accumulation abandons as soon as the margin-deflated bound provably
// exceeds it: the exact endpoint terms, then the forward interior envelope
// bound, then the reverse one.
func (e *Engine) rowSkip(pq *prepared, ci int, cutoff2 float64) bool {
	if e.idx == nil {
		return false
	}
	lay, row := e.idx.lay, e.idx.rows.at(ci)
	w := lay.W
	limit := skipLimit(cutoff2)
	kim := e.kim(pq, row)
	if kim > limit {
		return true
	}
	interior := lay.Interior()
	if interior == nil {
		return false
	}
	if sketch.MinDistSquaredOver(pq.qpaa[1:w-1], row[lay.OffKLo()+1:lay.OffKLo()+w-1], row[lay.OffKHi()+1:lay.OffKHi()+w-1], interior, limit-kim) {
		return true
	}
	return sketch.MinDistSquaredOver(row[1:w-1], pq.qenvLo[1:w-1], pq.qenvHi[1:w-1], interior, limit-kim)
}

// dtwOrder computes dtwLB2 for every position in one pass over the sketch
// column and returns those bounds with the candidates (every position but
// the query's) in ascending order of them, ties by position.
func (e *Engine) dtwOrder(pq *prepared) (lbs []float64, cands []int) {
	lbs = make([]float64, e.snap.Len())
	cands = make([]int, 0, len(lbs))
	for ci := range lbs {
		lbs[ci] = e.dtwLB2(pq, e.idx.rows.at(ci))
		if ci != pq.self {
			cands = append(cands, ci)
		}
	}
	slices.SortFunc(cands, func(a, b int) int { return cmp.Or(cmp.Compare(lbs[a], lbs[b]), a-b) })
	return lbs, cands
}
