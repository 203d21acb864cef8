package engine

import (
	"math"

	"uncertts/internal/distance"
	"uncertts/internal/proud"
	"uncertts/internal/sketch"
)

// Tier 0 of the lock-step scans. Euclidean, UMA, UEMA and PROUD compare the
// query with each candidate timestamp by timestamp, so the per-segment
// Jensen inequality sum_{t in j} (q_t - c_t)^2 >= len_j (qbar_j - cbar_j)^2
// turns the corpus' filter columns — sketch.CoarseSegments segment means per
// series, 128 bytes apart in one arena — into a lower bound on the squared
// distance that costs 16 multiply-adds. The steps (scan.go) test it against
// the live cut before the kernels touch the kilobyte-stride series row; a
// candidate it drops is counted in SeriesSkippedByIndex and never
// becomes a kernel candidate. Range and probabilistic steps compute the bound
// per candidate (the cut is static, or a probability); top-k computes all n
// of them up front, because they also say where the near neighbours are
// (seedCut). Nothing else about the scan changes (sharding by position, the
// shared atomic cut, the (distance, ID) ranking), and the bound only ever
// drops a series whose margin-deflated lower bound exceeds the cut, so
// answers are bit-identical to the scan without it — which Options.NoIndex
// still runs. The columns summarise the very arena vectors the engine scans
// (raw, UMA or UEMA, under the corpus' one filter geometry), so tier 0 is
// sound for every engine, and it reads them where they lie: through the
// snapshot's row index while deleted rows await compaction, never a copy.
//
// The sketch bucket tree does not serve these measures: its boxes are loose
// in 64 dimensions, so most buckets get visited anyway, and the per-member
// check then streams a kilobyte-plus sketch row per series — more bytes than
// the scan it is meant to avoid (bench/README.md, finding 3).

// indexBoundMargin deflates every distance-space lower bound (tier 0 and the
// DTW bucket bounds alike) before a skip comparison. The bounds are sound in
// exact arithmetic; the relative margin (enormous next to float64 rounding,
// tiny next to any real distance gap — the same philosophy as
// probBoundMargin on the probability side) absorbs the rounding of the
// bound's own accumulation and of the kernel's.
const indexBoundMargin = 1e-9

func deflate(v float64) float64 { return v - v*indexBoundMargin }

// skipLimit turns a squared cut into the raw-bound threshold of a skip
// decision: deflate(v) > cut  <=>  v > skipLimit(cut), to within an ulp of
// the folded constant — nothing next to the margin itself.
func skipLimit(cut float64) float64 { return cut * (1 / (1 - indexBoundMargin)) }

// A relative margin alone does not make tier 0 sound: a stored segment mean
// carries an absolute error of up to L*u times the mean magnitude of its
// segment (L the widest span, u = 2^-53 the unit roundoff), which is
// unbounded relative to the difference of two nearly equal means — near
// duplicates of the query, where Jensen is tight, are exactly where it
// bites (TestTier0Soundness has such pairs). Propagating that error through
// the weighted sum (Minkowski, then len_j * mean|x|^2 <= sum x^2 per
// segment, then ||c|| <= ||q|| + d for a candidate within the cut) gives
//
//	sqrt(bound as computed) <= d (1 + O(u)) + eta,   eta = 3 L u ||q||,
//
// and (a + eta)^2 <= a^2 (1 + m/2) + eta^2 (1 + 2/m) splits that into the
// relative margin m = indexBoundMargin and an absolute slack of at most
// 3 eta^2 / m, a constant per query. Subtracting the slack from the deflated
// bound makes it a lower bound on the squared distance as the kernel
// computes it, for every input. It is ~1e-18 for a z-normalised query of
// length 128 — no measurable pruning is lost.
const unitRoundoff = 1.0 / (1 << 53)

func (t *tier0) slack(queryEnergy float64) float64 {
	eta2 := 9 * t.geo.MaxSpan * t.geo.MaxSpan * unitRoundoff * unitRoundoff * queryEnergy
	return 3 * eta2 / indexBoundMargin
}

// tier0 is the filter column matching the engine's scanned vectors (raw, UMA
// or UEMA coarse means), plus the energy column PROUD's upper bound reads.
type tier0 struct {
	geo    sketch.Coarse
	means  rows // geo.W() coarse means per series
	energy rows // total squared observation energy per series, stride 1
}

// rawBound is the raw Jensen bound between the query and candidate ci.
func (t *tier0) rawBound(pq *prepared, ci int) float64 {
	return t.geo.GapSquared(pq.qc, t.means.at(ci))
}

// seedCut computes tier 0's raw bound for every resident series and uses
// them to tighten a top-k query's cut before the scan starts. Scanned in
// position order from an open cut, the cut only closes in as near neighbours
// happen to come up — about k ln(n/k) completions, and several times as many
// kernel starts on the way. But the bounds name the likely neighbours up
// front: the candidates whose bound was among the k smallest when it was read
// (a superset of the k smallest; a few dozen series) get their exact
// distance, and the k-th smallest of those is the cut the collector would
// hold had it been offered exactly these — an upper bound on the final k-th
// best, so lowering the shared cut to it drops no answer. The seeds are
// neither offered nor counted: they meet the scan again like every other
// candidate, which then reads its tier-0 verdict off the returned bounds
// against a cut that is near-final from the start.
//
// The bounds are computed in one sequential pass over the whole arena column
// — the few dead rows of a sparse snapshot cost less than an indirection per
// live one — and then folded down to position order in place: the row index
// is increasing and never below the position, so no bound is overwritten
// before it is read.
func (e *Engine) seedCut(pq *prepared, k int, b *cut) ([]float64, error) {
	lbs := make([]float64, len(e.t0.energy.data))
	e.t0.geo.GapsSquared(lbs, pq.qc, e.t0.means.data)
	if idx := e.t0.means.idx; idx != nil {
		for pos, row := range idx {
			lbs[pos] = lbs[row]
		}
		lbs = lbs[:len(idx)]
	}
	gaps, exact := newKHeap(k), newKHeap(k)
	for ci, g := range lbs {
		if ci == pq.self || (gaps.full() && g >= gaps.top()) {
			continue
		}
		gaps.push(g)
		d2, _, err := distance.SquaredEuclideanEarlyAbandon(pq.vec, e.vecs.at(ci), math.Inf(1))
		if err != nil {
			return nil, candErr(ci, err)
		}
		exact.push(math.Sqrt(d2))
	}
	if exact.full() {
		b.lower(ulpUp(exact.top() * exact.top()))
	}
	return lbs, nil
}

// coarseLB2 is tier 0's sound lower bound on the squared lock-step distance
// between the query and candidate ci.
func (e *Engine) coarseLB2(pq *prepared, ci int) float64 {
	return math.Max(0, deflate(e.t0.rawBound(pq, ci))-pq.slack)
}

// proudGap brackets the squared observation gap sum (q_t - c_t)^2 between
// the query and candidate ci without touching either series: the coarse
// bound from below, 2(E_q + E_c) from above (Cauchy-Schwarz:
// (q - c)^2 <= 2 q^2 + 2 c^2). PROUD's moments are affine in the gap, so the
// bracket feeds the same prefix bounds the per-candidate accumulation uses,
// as a prefix of zero timestamps.
func (e *Engine) proudGap(pq *prepared, ci int) (lb2, ub2 float64) {
	lb2 = e.coarseLB2(pq, ci)
	ub2 = 2 * (pq.suffix[0] + e.t0.energy.at(ci)[0])
	if ub2 < lb2 {
		ub2 = lb2
	}
	return lb2, ub2
}

// proudRejects reports whether tier 0 proves candidate ci fails the PROUD
// range predicate. A certain accept still goes to proudAccept: the candidate
// is in the answer either way, and it is accounted exactly as the scan
// without tier 0 accounts it.
func (e *Engine) proudRejects(pq *prepared, ci int, eps, epsLimit float64) bool {
	if e.t0 == nil {
		return false
	}
	lb2, ub2 := e.proudGap(pq, ci)
	return proud.PrefixDecide(lb2, 4*pq.varD*lb2, len(pq.vec), pq.varD, ub2-lb2, eps, epsLimit) == proud.Reject
}

// proudBelow reports whether tier 0 proves candidate ci's match probability
// falls below the current k-th best.
func (e *Engine) proudBelow(pq *prepared, ci int, eps, cut float64) bool {
	if e.t0 == nil || math.IsInf(cut, -1) { // no k-th best yet: nothing to fall below
		return false
	}
	lb2, ub2 := e.proudGap(pq, ci)
	return proud.ProbWithinUpper(lb2, 4*pq.varD*lb2, len(pq.vec), pq.varD, ub2-lb2, eps) < cut-probBoundMargin
}
