package engine

import (
	"cmp"
	"math"
	"slices"

	"uncertts/internal/arena"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/sketch"
)

// The prefilter is the first stage of every cascade that has one: one cheap
// lower bound per candidate (bounds), computed for a whole batch as the
// batch starts — for every position in one pass before the scan, under
// KindTopK — and tested against the cut before the candidate's series row is
// touched. A candidate it drops is counted in
// Stats.SeriesSkippedByIndex and never becomes a kernel candidate. There is
// one bound per family of measure, over a column of the corpus that
// summarises the very vectors the engine scans, under the very geometry it
// scans them with — so it is sound for every engine, and it is read where it
// lies, through the snapshot's row index while deleted rows await compaction:
//
//   - Tier 0 (Euclidean, UMA, UEMA, PROUD). These compare the query with each
//     candidate timestamp by timestamp, so the per-segment Jensen inequality
//     sum_{t in j} (q_t - c_t)^2 >= len_j (qbar_j - cbar_j)^2 turns the
//     corpus' filter columns — sketch.CoarseSegments segment means per
//     series, 128 bytes apart in one arena — into a lower bound on the
//     squared distance that costs 16 multiply-adds.
//   - The sketch row (DTW). Banded DTW is not lock-step, so Jensen does not
//     hold for it; its bound reads the candidate's own row of the corpus'
//     sketch column (internal/sketch), which summarises the series and its
//     LB_Keogh envelopes under the corpus' band: the exact endpoint gaps
//     (every warping path aligns (0,0) and (N-1,N-1) — LB_Kim's first and
//     last terms) plus the larger of two envelope bounds over the interior
//     segments, the query's PAA against the row's envelope means (LB_Keogh's
//     LB_PAA form) and the row's raw PAA against the query's own envelope
//     means (the reverse bound); both chain under DTW^2.
//
// DUST and MUNICH have none. Every kind tests the bound against its own cut
// (PROUD's kinds through the prefix decision, as a prefix of zero
// timestamps), and KindTopK also uses all of them to start near its answer,
// which is why it bounds every position up front:
// the lock-step measures seed the cut from the candidates with the k smallest
// bounds and scan in position order (seedCut); DTW scans best-first by the
// bound (order), because a DTW refine is dear and refining the nearest few
// first keeps the sweep from starting DPs the final cut would have spared.
// Every skip is backed by a bound sound under indexBoundMargin (and tier 0's
// slack), so answers are bit-identical to the scan without it
// (Options.NoIndex), and Candidates + SeriesSkippedByIndex = queries * (N-1).

// defaultIndexThreshold is the snapshot size below which no prefilter is
// engaged (Options.IndexThreshold zero value): under ~a thousand resident
// series the plain scan wins.
const defaultIndexThreshold = 1024

// prefilter is the engine's one prefilter: its bound and the column it reads.
type prefilter struct {
	dtw    bool          // the sketch-row bound; false: tier 0's
	coarse sketch.Coarse // tier 0's segments
	lay    sketch.Layout // the sketch row layout (DTW)
	rows   rows          // the coarse means or the sketch rows, by position
}

// resolvePrefilter engages the measure's prefilter, if it has one and the
// engine is configured and large enough for it.
func (e *Engine) resolvePrefilter(cols *corpus.Columns) {
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
	n := e.snap.SeriesLen()
	var means arena.Matrix
	switch e.opts.Measure {
	case MeasureEuclidean, MeasurePROUD:
		means = cols.CoarseV
	case MeasureUMA:
		means = cols.CoarseU
	case MeasureUEMA:
		means = cols.CoarseE
	case MeasureDTW:
		e.pre = &prefilter{dtw: true, lay: sketch.NewLayout(n, sketch.DefaultSegments), rows: column(cols.Sketch, cols.Rows)}
		return
	default:
		return
	}
	e.pre = &prefilter{coarse: sketch.NewCoarse(n), rows: column(means, cols.Rows)}
}

// summarise attaches the query-side summaries the bound reads: the coarse
// segment means and the rounding slack for tier 0 (a resident query aliases
// its own filter-column row), the PAA of the query and of its warping
// envelope for the sketch rows.
func (p *prefilter) summarise(pq *prepared, band int) {
	if p.dtw {
		pq.qpaa = sketch.PAA(pq.vec, p.lay.Spans)
		up, lo := distance.Envelope(pq.vec, band)
		pq.qenvHi = sketch.PAA(up, p.lay.Spans)
		pq.qenvLo = sketch.PAA(lo, p.lay.Spans)
		return
	}
	if pq.self >= 0 {
		pq.qc = p.rows.at(pq.self)
	} else {
		pq.qc = sketch.PAA(pq.vec, p.coarse.Spans)
	}
	var energy float64
	for _, v := range pq.vec {
		energy += v * v
	}
	pq.slack = p.slack(energy)
}

// bounds writes the raw bound of positions lo, lo+1, ... into lbs (the
// query's own included; no step reads it).
func (p *prefilter) bounds(pq *prepared, lbs []float64, lo int) {
	if p.dtw {
		for i := range lbs {
			lbs[i] = p.dtwLB2(pq, p.rows.at(lo+i))
		}
		return
	}
	for i := range lbs {
		lbs[i] = p.coarse.GapSquared(pq.qc, p.rows.at(lo+i))
	}
}

// indexBoundMargin deflates every raw prefilter bound before it is compared
// with a cut. The bounds are sound in exact arithmetic; the relative margin
// (enormous next to float64 rounding, tiny next to any real distance gap —
// the same philosophy as probBoundMargin on the probability side) absorbs
// the rounding of the bound's own accumulation and of the kernel's.
const indexBoundMargin = 1e-9

func deflate(v float64) float64 { return v - v*indexBoundMargin }

// skipLimit turns a squared cut into the raw-bound threshold of a skip
// decision: deflate(v) > cut  <=>  v > skipLimit(cut), to within an ulp of
// the folded constant — nothing next to the margin itself.
func skipLimit(cut float64) float64 { return cut * (1 / (1 - indexBoundMargin)) }

// skips is the prefilter stage of the distance measures: whether the raw
// bound proves the candidate beyond the squared cut.
func (pq *prepared) skips(raw, cut2 float64) bool { return raw > skipLimit(cut2+pq.slack) }

// lb2 is a raw bound made a sound lower bound on the squared distance as the
// kernel computes it.
func (pq *prepared) lb2(raw float64) float64 { return math.Max(0, deflate(raw)-pq.slack) }

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
// length 128 — no measurable pruning is lost. The sketch row's bound runs
// on the relative margin alone (its slack is 0).
const unitRoundoff = 1.0 / (1 << 53)

func (p *prefilter) slack(queryEnergy float64) float64 {
	eta2 := 9 * p.coarse.MaxSpan * p.coarse.MaxSpan * unitRoundoff * unitRoundoff * queryEnergy
	return 3 * eta2 / indexBoundMargin
}

// kim is the exact endpoint term of the DTW bound: the squared gaps of the
// aligned pairs (0, 0) and (N-1, N-1), which are one pair when N = 1.
func (p *prefilter) kim(pq *prepared, row []float64) float64 {
	d0 := pq.vec[0] - row[p.lay.OffV0()]
	if len(pq.vec) == 1 {
		return d0 * d0
	}
	dn := pq.vec[len(pq.vec)-1] - row[p.lay.OffVLast()]
	return d0*d0 + dn*dn
}

// dtwLB2 lower-bounds the squared banded DTW distance between the query and
// the series whose sketch row is row. The endpoint gaps are exact, so the
// envelope bounds sum over the interior segments only (the edge segments are
// excluded so the endpoint timestamps are never counted twice).
func (p *prefilter) dtwLB2(pq *prepared, row []float64) float64 {
	lay := p.lay
	w := lay.W
	kim := p.kim(pq, row)
	interior := lay.Interior()
	if interior == nil {
		return kim
	}
	fwd := sketch.MinDistSquared(pq.qpaa[1:w-1], row[lay.OffKLo()+1:lay.OffKLo()+w-1], row[lay.OffKHi()+1:lay.OffKHi()+w-1], interior)
	rev := sketch.MinDistSquared(row[1:w-1], pq.qenvLo[1:w-1], pq.qenvHi[1:w-1], interior)
	return kim + math.Max(fwd, rev)
}

// order returns the candidates — every position but self — in ascending
// order of their bounds, ties by position: DTW top-k's scan order.
func order(lbs []float64, self int) []int {
	cands := make([]int, 0, len(lbs))
	for ci := range lbs {
		if ci != self {
			cands = append(cands, ci)
		}
	}
	slices.SortFunc(cands, func(a, b int) int { return cmp.Or(cmp.Compare(lbs[a], lbs[b]), a-b) })
	return cands
}

// seedCut uses tier 0's bounds to tighten a lock-step top-k query's cut
// before the scan starts. Scanned in position order from an open cut, the
// cut only closes in as near neighbours happen to come up — about k ln(n/k)
// completions, and several times as many kernel starts on the way. But the
// bounds name the likely neighbours up front: the candidates whose bound was
// among the k smallest when it was read (a superset of the k smallest; a few
// dozen series) get their exact distance, and the k-th smallest of those is
// the cut the collector would hold had it been offered exactly these — an
// upper bound on the final k-th best, so lowering the shared cut to it drops
// no answer. The seeds are neither offered nor counted: they meet the scan
// again like every other candidate, which then reads its tier-0 verdict off
// the bounds against a cut that is near-final from the start.
func (e *Engine) seedCut(pq *prepared, k int, lbs []float64, b *cut) error {
	gaps, exact := newKHeap(k, len(lbs)), newKHeap(k, len(lbs))
	for ci, g := range lbs {
		if ci == pq.self || (gaps.full() && g >= gaps.top()) {
			continue
		}
		gaps.push(g)
		d2, _, err := distance.SquaredEuclideanEarlyAbandon(pq.vec, e.vecs.at(ci), math.Inf(1))
		if err != nil {
			return candErr(ci, err)
		}
		exact.push(math.Sqrt(d2))
	}
	if exact.full() {
		b.lower(ulpUp(exact.top() * exact.top()))
	}
	return nil
}
