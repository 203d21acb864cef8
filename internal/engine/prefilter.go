package engine

import (
	"cmp"
	"math"

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
//     means (the reverse bound); both chain under DTW^2. One branch-free
//     pass over the row's three interior blocks sums both (dtwLB2), bit for
//     bit the two sketch.MinDistSquared sums that define them, over span
//     widths the prefilter converts once, the two sums as the two lanes of
//     one SSE2 register on amd64 (gaps_amd64.s; envelopeGapsGo elsewhere):
//     ~2x the Go loop over 1024 rows at the served shape.
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
// engaged (Options.indexThreshold zero value): under ~a thousand resident
// series the plain scan wins.
const defaultIndexThreshold = 1024

// prefilter is the engine's one prefilter: its bound, the column it reads and
// the stage the steps test it in.
type prefilter struct {
	stage  prefilterStage // distPrefilter or proudPrefilter
	dtw    bool           // the sketch-row bound; false: tier 0's
	coarse sketch.Coarse  // tier 0's segments
	lay    sketch.Layout  // the sketch row layout (DTW)
	widths []float64      // the widths of lay's interior spans (DTW)
	rows   rows           // the coarse means or the sketch rows, by position
}

// resolvePrefilter engages the prefilter the measure's plan named (its stage,
// column and bound), if it named one and the engine is configured and large
// enough for it.
func (e *Engine) resolvePrefilter(p prefilter) {
	threshold := cmp.Or(e.opts.indexThreshold, defaultIndexThreshold)
	if p.stage == noPrefilter || e.opts.NoPrune || e.opts.NoIndex || threshold > 0 && e.snap.Len() < threshold {
		return
	}
	n := e.snap.SeriesLen()
	if p.dtw {
		e.pre = dtwPrefilter(sketch.NewLayout(n, sketch.DefaultSegments), p.rows)
		return
	}
	e.pre = &prefilter{stage: p.stage, coarse: sketch.NewCoarse(n), rows: p.rows}
}

// dtwPrefilter is the sketch-row prefilter over rows of layout lay.
func dtwPrefilter(lay sketch.Layout, r rows) *prefilter {
	p := &prefilter{stage: distPrefilter, dtw: true, lay: lay, rows: r}
	for _, sp := range lay.Interior() {
		p.widths = append(p.widths, float64(sp[1]-sp[0]))
	}
	return p
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
	p.coarse.Gaps(pq.qrow, p.rows.data, p.rows.stride, p.rows.idx, lo, lbs)
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

func (p *prefilter) slack(vec []float64) float64 {
	if p.dtw {
		return 0
	}
	var energy float64
	for _, v := range vec {
		energy += v * v
	}
	eta2 := 9 * p.coarse.MaxSpan * p.coarse.MaxSpan * unitRoundoff * unitRoundoff * energy
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
// excluded so the endpoint timestamps are never counted twice). One pass over
// the row's three interior blocks sums both envelope bounds, each exactly as
// sketch.MinDistSquared does: a segment's gap max(lo-v, 0) + max(v-hi, 0) is
// that switch's d bit for bit because lo <= hi holds in floating point — the
// envelopes satisfy it timestamp by timestamp, and PAA sums and divides them
// over the same span, operations that round monotonically — so at most one
// side is non-zero and adding +0 to it is exact; a gap of 0 adds a term of
// +0, which leaves the non-negative sum as the switch's skip does. That holds
// for finite means; a segment sum that overflows (values beyond ~1e306) can
// make a gap Inf - Inf, a NaN bound that skips nothing (order places it).
// envelopeGaps runs the pass, each sum in segment order.
func (p *prefilter) dtwLB2(pq *prepared, row []float64) float64 {
	kim := p.kim(pq, row)
	k, w := len(p.widths), p.lay.W
	if k == 0 {
		return kim
	}
	q := pq.qrow
	fwd, rev := envelopeGaps(p.widths, q[1:k+1], q[w+1:w+k+1], q[2*w+1:2*w+k+1], row[1:k+1], row[w+1:w+k+1], row[2*w+1:2*w+k+1])
	return kim + math.Max(fwd, rev)
}

// envelopeGapsGo is dtwLB2's pass over the interior segments, which all
// seven slices hold: the Go loop envelopeGaps runs in SSE2 on amd64.
func envelopeGapsGo(widths, qpaa, qlo, qhi, paa, klo, khi []float64) (fwd, rev float64) {
	for j, width := range widths {
		v, c := qpaa[j], paa[j]
		d := max(klo[j]-v, 0) + max(v-khi[j], 0)
		fwd += width * d * d
		e := max(qlo[j]-c, 0) + max(c-qhi[j], 0)
		rev += width * e * e
	}
	return fwd, rev
}

// order returns the candidates — every position but self — in ascending
// order of their bounds, ties by position: DTW top-k's scan order, the order
// cmp.Compare gives (bound, position). It is a stable LSD radix sort of the
// bounds' bits, a byte a pass, in s's buffers: flipping the sign bit of a
// non-negative bound and every bit of a negative one makes the keys order as
// the values do, -0 enters as its equal +0, and a NaN bound (the fused pass
// gives one only to a segment mean that overflowed) as key 0, below every
// number, where cmp.Compare puts it. A byte every key shares takes no pass.
func order(lbs []float64, self int, s *scratch) []int {
	n := len(lbs)
	if 0 <= self && self < n {
		n--
	}
	if cap(s.keys[0]) < n {
		s.keys = [2][]uint64{make([]uint64, n), make([]uint64, n)}
		s.cis = [2][]int{make([]int, n), make([]int, n)}
	}
	keys, cis, tmpK, tmpC := s.keys[0][:n], s.cis[0][:n], s.keys[1][:n], s.cis[1][:n]
	all, any := ^uint64(0), uint64(0) // the bits every key has, and any key
	i := 0
	for ci, lb := range lbs {
		if ci == self {
			continue
		}
		if lb == 0 {
			lb = 0
		}
		k := math.Float64bits(lb)
		k ^= uint64(int64(k)>>63) | 1<<63
		if lb != lb {
			k = 0
		}
		keys[i], cis[i] = k, ci
		all, any = all&k, any|k
		i++
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte((all^any)>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for i, k := range keys {
			b := byte(k >> shift)
			tmpK[at[b]], tmpC[at[b]] = k, cis[i]
			at[b]++
		}
		keys, tmpK, cis, tmpC = tmpK, keys, tmpC, cis
	}
	return cis
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
