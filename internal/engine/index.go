package engine

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"uncertts/internal/arena"
	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/qerr"
	"uncertts/internal/sketch"
	"uncertts/internal/telemetry"
)

// The second candidate source, which banded DTW alone uses: instead of
// sharding the candidate space positionally, the engine walks the snapshot's
// sketch index (internal/sketch) bucket by bucket. The tree was built over
// the corpus' own envelopes, so its band is the engine's by construction;
// its members name arena rows, which memberPos turns into positions. Each
// bucket carries the elementwise
// [min, max] region of its members' sketch rows, which bounds every member
// at once: the exact endpoint gaps (every warping path aligns (0,0) and
// (N-1,N-1) — LB_Kim's first/last terms, read from the row's v0/vLast
// columns) plus the larger of two envelope bounds over the interior
// segments: query PAA against the bucket's envelope block (LB_Keogh's
// LB_PAA form) and the bucket's raw-PAA block against the query's own
// envelope means (the reverse bound); both chain under DTW^2.
//
// Buckets are ranked best-first, so the query's cut tightens on the nearest
// candidates first and far buckets are skipped wholesale at their work item
// — workers cooperate across buckets exactly as the scan cooperates across
// shards. Inside a surviving bucket, each
// member is prefiltered by the same bound evaluated on its own sketch row
// (the classic iSAX leaf check: an O(W) read of the summary before the
// O(N * band) DP is touched) — a bucket's box is the union of dozens of rows
// and admits far more than any single row does. Every skip, bucket- or
// member-level, is backed by a bound that is sound under indexBoundMargin,
// so indexed answers are bit-identical to the linear scan, which the parity
// tests assert for every worker count.
//
// Survivors go through the same step and the same collector as the scan's
// (scan.go): the index only decides which candidates are examined at all. The DTW kernel is dear
// enough for this to pay (about 4 against 7 ms per query on the bench's
// sampled corpus). The lock-step measures and PROUD are not — see tier0.go —
// and MUNICH's bucket bound skipped 0.28% of the series, so all of those run
// the scan. Either way the Stats identity Candidates + SeriesSkippedByIndex =
// queries * (N-1) holds for index queries.

// defaultIndexThreshold is the snapshot size below which neither prefilter
// (tier 0 or the bucket tree) is engaged (Options.IndexThreshold zero
// value): under ~a thousand resident series the plain scan wins.
const defaultIndexThreshold = 1024

// engineIndex is the engine's resolved view of the snapshot's sketch index:
// the bucket list collected once at construction, the row layout, and the
// sketch arena the members' own rows are read from.
type engineIndex struct {
	lay     sketch.Layout
	tree    *sketch.Tree
	buckets []sketch.Bucket
	rows    rows // the sketch rows by position
}

// resolveIndex decides which prefilter, if any, serves the engine's queries:
// tier 0 (the filter columns, inside the scan) for the lock-step measures
// and PROUD, the sketch bucket tree for DTW, neither for DUST and MUNICH.
// Both summarise the very arena columns the engine scans, under the very
// geometry it scans them with, so they are sound for every engine.
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
		return &tier0{geo: sketch.NewCoarse(e.snap.SeriesLen()), means: column(means, cols.Rows), energy: column(cols.Energy, cols.Rows)}
	}
	switch e.opts.Measure {
	case MeasureEuclidean, MeasurePROUD:
		e.t0 = t0(cols.CoarseV)
	case MeasureUMA:
		e.t0 = t0(cols.CoarseU)
	case MeasureUEMA:
		e.t0 = t0(cols.CoarseE)
	case MeasureDTW:
		tree := e.snap.Index()
		e.idx = &engineIndex{lay: tree.Layout(), tree: tree, buckets: tree.Buckets(), rows: column(cols.Sketch, cols.Rows)}
	}
}

// memberPos resolves a bucket member to its snapshot position: the arena
// row itself on dense snapshots, its rank in the (increasing) row index
// otherwise. The tree holds exactly the snapshot's live series, so the row
// is always found.
func (e *Engine) memberPos(m sketch.Member) int {
	idx := e.idx.rows.idx
	if idx == nil {
		return m.Row
	}
	pos, _ := slices.BinarySearch(idx, int32(m.Row))
	return pos
}

// idxTally is what one worker chunk of the tree walk carries: its stats
// deltas, batched so the hot bucket loops touch no shared atomics and
// flushed once per chunk, and the buffer a visited bucket's member positions
// are gathered in. Skipped buckets count every member — including the query
// itself when its bucket happens to be skipped, which the caller corrects
// once per query at the end (selfFix) rather than scanning every skipped
// bucket's member list for it.
type idxTally struct {
	visited, pruned, skipped int64
	ids                      []int
}

func (t *idxTally) flush(e *Engine) {
	if t.visited != 0 {
		e.bucketsVisited.Add(t.visited)
	}
	if t.pruned != 0 {
		e.bucketsPruned.Add(t.pruned)
	}
	if t.skipped != 0 {
		e.seriesSkipped.Add(t.skipped)
	}
}

// selfFix settles the query-itself term of the skipped-series counter: the
// query's series lives in exactly one bucket, so either it surfaced in a
// visited bucket's member loop (sawSelf, never counted anywhere) or its
// bucket was skipped wholesale and the tally counted it once too many.
func (e *Engine) selfFix(pq *prepared, sawSelf bool) {
	if pq.self >= 0 && !sawSelf {
		e.seriesSkipped.Add(-1)
	}
}

// gap2 is the squared distance from v to the interval [lo, hi].
func gap2(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return (lo - v) * (lo - v)
	case v > hi:
		return (v - hi) * (v - hi)
	}
	return 0
}

// dtwLB2 lower-bounds the squared banded DTW distance between the query and
// every series whose sketch row lies in [lo, hi] (a bucket region, or a
// single row passed as both bounds). Every warping path aligns the endpoint
// pairs (0, 0) and (N-1, N-1), so their exact gaps — against the row's
// v0/vLast columns — add to any envelope bound summed over the interior
// segments only (the edge segments are excluded so the endpoint timestamps
// are never counted twice). The envelope part takes the larger of the
// forward form (query PAA vs the region's LB_Keogh envelope means; Keogh's
// LB_PAA, sound by Cauchy-Schwarz per segment) and the reverse form (the
// region's raw-PAA box vs the query's own envelope means, sound by the
// symmetric argument).
func (e *Engine) dtwLB2(pq *prepared, lo, hi []float64) float64 {
	lay := e.idx.lay
	w := lay.W
	kim := gap2(pq.vec[0], lo[lay.OffV0()], hi[lay.OffV0()]) +
		gap2(pq.vec[len(pq.vec)-1], lo[lay.OffVLast()], hi[lay.OffVLast()])
	interior := lay.Interior()
	if interior == nil {
		return kim
	}
	fwd := sketch.MinDistSquared(pq.qpaa[1:w-1], lo[lay.OffKLo()+1:lay.OffKLo()+w-1], hi[lay.OffKHi()+1:lay.OffKHi()+w-1], interior)
	rev := sketch.IntervalMinDistSquared(lo[1:w-1], hi[1:w-1], pq.qenvLo[1:w-1], pq.qenvHi[1:w-1], interior)
	return kim + math.Max(fwd, rev)
}

// bucketBound evaluates the bucket's deflated lower bound under an
// abandonment limit derived from cut. The skip return is exactly the
// decision deflate(dtwLB2(pq, bk.Lo, bk.Hi)) > cut makes, but the
// accumulation abandons at the first segment that settles it — once a
// query's shared bound is finite, almost every bucket crosses the limit
// within a few segments, so the sweep never pays the full O(W) sum the eager
// form costs. When the bucket survives (skip false), the returned bound is
// the exact deflated bound, usable as a best-first sort key and for
// re-checks against a later, tighter cut. The three sound components
// (endpoint gaps, forward and reverse interior envelope bounds) are tried
// cheapest-first; any one of them clearing limit-kim settles the max the
// eager bound takes.
func (e *Engine) bucketBound(pq *prepared, bk sketch.Bucket, cut float64) (float64, bool) {
	lay := e.idx.lay
	w := lay.W
	limit := skipLimit(cut)
	kim := gap2(pq.vec[0], bk.Lo[lay.OffV0()], bk.Hi[lay.OffV0()]) +
		gap2(pq.vec[len(pq.vec)-1], bk.Lo[lay.OffVLast()], bk.Hi[lay.OffVLast()])
	if kim > limit {
		return deflate(kim), true
	}
	interior := lay.Interior()
	if interior == nil {
		return deflate(kim), false
	}
	fwd, over := sketch.MinDistSquaredBounded(pq.qpaa[1:w-1], bk.Lo[lay.OffKLo()+1:lay.OffKLo()+w-1], bk.Hi[lay.OffKHi()+1:lay.OffKHi()+w-1], interior, limit-kim)
	if over {
		return deflate(kim + fwd), true
	}
	rev, over := sketch.IntervalMinDistSquaredBounded(bk.Lo[1:w-1], bk.Hi[1:w-1], pq.qenvLo[1:w-1], pq.qenvHi[1:w-1], interior, limit-kim)
	if over {
		return deflate(kim + rev), true
	}
	return deflate(kim + math.Max(fwd, rev)), false
}

// bucketSkip is bucketBound's decision without the value (static-cutoff
// paths, where nothing ranks the survivors).
func (e *Engine) bucketSkip(pq *prepared, bk sketch.Bucket, cut float64) bool {
	_, over := e.bucketBound(pq, bk, cut)
	return over
}

// memberSkip is dtwLB2 evaluated on one member's own sketch row — the iSAX
// leaf check, dramatically tighter than the bucket's union box — phrased as
// a skip decision so the accumulation abandons as soon as the
// margin-deflated bound provably exceeds cut: the exact endpoint terms, then
// the forward interior envelope bound, then the reverse one.
func (e *Engine) memberSkip(pq *prepared, row []float64, cut float64) bool {
	lay := e.idx.lay
	w := lay.W
	limit := skipLimit(cut)
	d0 := pq.vec[0] - row[lay.OffV0()]
	dn := pq.vec[len(pq.vec)-1] - row[lay.OffVLast()]
	kim := d0*d0 + dn*dn
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

// bucketPlan is one bucket scheduled for a query, carrying the deflated
// lower bound it was ranked by so the work item can re-check it against the
// live shared bound and skip mid-flight.
type bucketPlan struct {
	idx   int
	bound float64
}

// seedBuckets picks the query's seed set for the top-k path: its home leaf
// first (the tree descent by its PAA symbols — its SAX neighbours, whose
// exact distances make the cut near-final), then the best-bounded buckets of
// a deterministic stride sample until more than k candidates have surfaced. A
// near-final cut is what lets the plan pass test every remaining bucket with
// the early-abandoning bound instead of ranking them all eagerly.
func (e *Engine) seedBuckets(pq *prepared, k int) []int {
	nb := len(e.idx.buckets)
	stride := max(nb/256, 1)
	var seeds []int
	m := 0
	home := e.idx.tree.Locate(pq.qpaa)
	if home >= 0 {
		seeds = append(seeds, home)
		m += len(e.idx.buckets[home].Members)
	}
	if m > k {
		return seeds
	}
	sample := make([]bucketPlan, 0, nb/stride+1)
	for bi := 0; bi < nb; bi += stride {
		if bi != home {
			sample = append(sample, bucketPlan{idx: bi, bound: e.dtwLB2(pq, e.idx.buckets[bi].Lo, e.idx.buckets[bi].Hi)})
		}
	}
	slices.SortFunc(sample, func(a, b bucketPlan) int { return cmp.Compare(a.bound, b.bound) })
	for _, pl := range sample {
		seeds = append(seeds, pl.idx)
		if m += len(e.idx.buckets[pl.idx].Members); m > k {
			break
		}
	}
	return seeds
}

// treeTopK is the tree's counterpart of scan for KindTopK, in four stages:
//
//  1. seed: the sampled best buckets run their exact kernels, making the
//     cut finite;
//  2. plan: every remaining bucket is tested with the early-abandoning
//     bound at the seeded cut — almost all of them settle within a few
//     segments and are skipped wholesale without ranking;
//  3. sort: the few survivors are ordered best-first by the exact bounds
//     the plan pass got for free;
//  4. work: survivors run sharded in that order, each re-checked against
//     the live cut first — the nearest buckets tighten it to final almost
//     immediately, so later survivors usually skip at an O(1) compare.
//
// The members of a visited bucket go through step, the same one the scan
// would run, which offers to coll.
func (e *Engine) treeTopK(ctx context.Context, pq *prepared, workers, k int, coll *collector, step step) error {
	if err := ctx.Err(); err != nil {
		return qerr.Cancelled(err)
	}
	sawSelf := false // set by the one worker that visits the query's own bucket

	// visit runs the members of one bucket through step.
	visit := func(scratch *distance.DTWScratch, t *idxTally, bi int) error {
		t.visited++
		t.ids = t.ids[:0]
		for _, m := range e.idx.buckets[bi].Members {
			if ci := e.memberPos(m); ci == pq.self {
				sawSelf = true
			} else {
				t.ids = append(t.ids, ci)
			}
		}
		_, skipped, err := step(scratch, span{t.ids, 0, len(t.ids)})
		t.skipped += skipped
		return err
	}
	// skipBucket accounts a bucket excluded wholesale.
	skipBucket := func(t *idxTally, bi int) {
		t.pruned++
		t.skipped += int64(len(e.idx.buckets[bi].Members))
	}

	seedSpan := telemetry.TraceFrom(ctx).Start("index_descent")
	seeds := e.seedBuckets(pq, k)
	seedSpan.End()
	scratch := e.newScratch()
	var t idxTally
	for _, bi := range seeds {
		if e.bucketSkip(pq, e.idx.buckets[bi], coll.cut.get()) {
			skipBucket(&t, bi)
		} else if err := visit(scratch, &t, bi); err != nil {
			return err
		}
	}

	var plan []bucketPlan
	for bi, bk := range e.idx.buckets {
		if slices.Contains(seeds, bi) { // a handful of entries
			continue
		}
		bound, over := e.bucketBound(pq, bk, coll.cut.get())
		if over {
			skipBucket(&t, bi)
			continue
		}
		plan = append(plan, bucketPlan{idx: bi, bound: bound})
	}
	slices.SortFunc(plan, func(a, b bucketPlan) int { return cmp.Compare(a.bound, b.bound) })
	t.flush(e)

	// One bucket per claim: best-first order puts the dear buckets (near
	// members, whose DP runs long before it abandons) at the front, so
	// coarser chunks leave one worker finishing them while the others idle.
	err := core.RunShardedCtx(ctx, len(plan), 1, workers, func(lo, hi int) error {
		scratch := e.newScratch()
		var t idxTally
		for _, pl := range plan[lo:hi] {
			if pl.bound > coll.cut.get() {
				skipBucket(&t, pl.idx)
			} else if err := visit(scratch, &t, pl.idx); err != nil {
				return err
			}
		}
		t.flush(e)
		return nil
	})
	if err != nil {
		return err
	}
	e.selfFix(pq, sawSelf)
	return nil
}

// treeCandidates is the tree as the candidate source of KindRange. The
// cutoff is static, so best-first bucket ordering buys nothing here; instead,
// the members of every bucket the bound cannot exclude are sorted back into
// snapshot position order for scan to sweep contiguously — bucket order would
// hop all over the arenas and forfeit the locality the columnar layout exists
// for. (The step still prefilters each survivor by its own sketch row before
// the kernel runs.)
func (e *Engine) treeCandidates(pq *prepared, cutoff2 float64) []int {
	cands := []int{} // non-nil even when empty: nil means "every position" to scan
	var t idxTally
	sawSelf := false
	for _, bk := range e.idx.buckets {
		if e.bucketSkip(pq, bk, cutoff2) {
			t.pruned++
			t.skipped += int64(len(bk.Members))
			continue
		}
		t.visited++
		for _, m := range bk.Members {
			if ci := e.memberPos(m); ci == pq.self {
				sawSelf = true
			} else {
				cands = append(cands, ci)
			}
		}
	}
	t.flush(e)
	e.selfFix(pq, sawSelf)
	sort.Ints(cands)
	return cands
}
