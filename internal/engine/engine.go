// Package engine is the query-serving layer of the reproduction: a top-k /
// range similarity engine that sits above a corpus snapshot and prunes
// aggressively before any work reaches the hot distance kernels.
//
// There is one way in — Run (RunStream with incremental delivery) takes a
// declarative Request — and one path behind it, the same stages for every
// measure and every kind:
//
//	source → prefilter pass → step (cascade per candidate) → collect
//
// Source. The candidates of a request are every snapshot position but the
// query's own, cut into ShardSize batches that the work-stealing executor of
// internal/core drains (scan.go). There is one source for every measure and
// kind; it runs in position order, except DTW top-k, which runs it in the
// order of its prefilter bound so its dear kernel meets the nearest
// candidates first.
//
// Prefilter pass. A measure with a prefilter (prefilter.go) bounds the
// candidates in a pass over one corpus column: tier 0's 16-segment Jensen
// bound over the filter columns for Euclidean, UMA, UEMA and PROUD, the
// candidate's own sketch row for DTW. KindTopK bounds every position before
// the scan, because it starts from the bounds; the other kinds bound each
// batch's positions as the batch starts, on the workers. DUST and MUNICH
// have none.
//
// Step and cascade. A batch goes through one of two steps, one per family of
// kinds: the ranking kinds test each candidate against the live cut and
// offer what resolves to the collector; the range kinds test it against a
// static cut and gather what matches. What a candidate meets in either is its
// measure's cascade — one ordered list of stages, cheapest first, each of
// which either settles the candidate in one outcome (one Stats counter) or
// hands it on:
//
//	Euclidean, UMA, UEMA  prefilter → early-abandoning squared sum
//	DTW                   prefilter → LB_Kim → LB_Keogh → two-row DP, abandoned
//	                      on a row's minimum plus LB_Keogh's terms still ahead
//	DUST                  early-abandoning Equation 13 sum over shared phi tables
//	PROUD                 prefilter (tier 0's gap bracket) → the moments, one
//	                      prefix decision per 16 timestamps → the full moments
//	MUNICH                bounding intervals → moment bracket → sample-pair
//	                      bound (exact regime) → a refine that abandons in the
//	                      estimator's own arithmetic
//
// A prefilter drop lands in SeriesSkippedByIndex and never becomes a
// candidate; LB_Kim and LB_Keogh in PrunedByEnvelope; MUNICH's three bounds
// in ResolvedByBounds; PROUD's prefix decisions of the range predicate in
// ResolvedEarly; any other kernel stopped mid-way in AbandonedEarly; a full
// one in Completed. Every stage compares a sound bound against the cut under
// its own margin — indexBoundMargin and tier 0's slack at the prefilter,
// probBoundMargin on the probability side, the kernels' derived margins
// inside them — so no stage drops a candidate the unpruned scan would keep.
// Each batch counts its outcomes in its own tally and adds it to the
// engine's counters once, when it ends.
//
// Collect. The range kinds gather their matches by position; the two top-k
// kinds offer every resolved candidate to one query-wide collector whose
// k-th best key tightens the cut all workers — and, through Bound and
// ProbBound, all shards of a cluster query — prune against (bound.go). A
// published cut is always the k-th best of a subset of candidates, hence a
// bound on the true k-th best, so a candidate dropped against it can never
// belong to the answer: results are bit-identical to the unpruned scan
// (Options.NoPrune) for every worker count, which the tests assert.
//
// The engine is built over an immutable corpus.Snapshot (NewFromSnapshot).
// One switch (plan) is each measure's plan: the column it scans, and the
// column and stage of its prefilter — over the snapshot's columns for the
// candidates, and over the query's own rows for the query, which the corpus
// derived for an ad-hoc query as it would for an insert (bind). It owns no
// data and no geometry. The
// per-candidate artifacts every device needs — LB_Keogh envelopes, filtered
// vectors, filter columns, energies, sketch rows — are columns of the corpus
// arenas, maintained incrementally by the corpus; the engine reads them in
// place, one layout for every snapshot: row i of a column on a dense
// snapshot, row Rows[i] through the snapshot's position -> row index while
// deleted rows await compaction (corpus.Snapshot.Arena). The band, filter
// window, decay, weight mode and DUST tables are the snapshot's
// corpus.Config and nothing else — a caller wanting another window builds
// another corpus. So
// constructing an engine is O(1) in the corpus size for every measure on
// every snapshot, and writers never invalidate a running query (snapshot
// isolation).
package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"uncertts/internal/arena"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
)

// rows is one arena column addressed by snapshot position: row ci is
// arithmetic into one contiguous array, so a scan in candidate order is a
// sequential read (dead rows are stepped over, never touched). idx is the
// snapshot's position -> arena row index, nil on dense snapshots, where the
// two coincide. It holds the matrix's backing array and stride rather than
// the arena.Matrix: tier 0 takes a row per candidate, nine in ten of which
// end there, and Matrix.Row's capped view of a by-value matrix measured
// +40% on Euclidean range queries.
type rows struct {
	data   []float64
	stride int
	idx    []int32
}

func column(m arena.Matrix, idx []int32) rows { return rows{m.Data(), m.Stride(), idx} }

func (r *rows) at(ci int) []float64 {
	if r.idx != nil {
		ci = int(r.idx[ci])
	}
	off := ci * r.stride
	return r.data[off : off+r.stride]
}

// Measure selects the similarity measure the engine serves.
type Measure int

const (
	// MeasureEuclidean scans the perturbed observations with plain
	// Euclidean distance (the Section 4.1.2 baseline).
	MeasureEuclidean Measure = iota
	// MeasureUMA scans UMA-filtered series (Eq. 17) with Euclidean
	// distance.
	MeasureUMA
	// MeasureUEMA scans UEMA-filtered series (Eq. 18) with Euclidean
	// distance.
	MeasureUEMA
	// MeasureDTW scans the perturbed observations with Sakoe-Chiba banded
	// DTW, pruned by LB_Keogh.
	MeasureDTW
	// MeasureDUST scans with the DUST dissimilarity (Equation 13), sharing
	// one set of phi tables across every query.
	MeasureDUST
	// MeasurePROUD serves probabilistic threshold queries (KindProbRange,
	// KindProbTopK) with PROUD's normal approximation of the squared distance
	// over the perturbed observations, pruned by sound prefix bounds.
	MeasurePROUD
	// MeasureMUNICH serves probabilistic threshold queries over the
	// repeated-observation model (every resident series must carry
	// samples), pruned by the bounding intervals and probability bounds
	// before any combination counting.
	MeasureMUNICH
)

// Measures lists every measure the engine serves, in declaration order.
func Measures() []Measure {
	return []Measure{MeasureEuclidean, MeasureUMA, MeasureUEMA, MeasureDTW, MeasureDUST, MeasurePROUD, MeasureMUNICH}
}

// measureNames are the measures' names, by Measure.
var measureNames = [...]string{"Euclidean", "UMA", "UEMA", "DTW", "DUST", "PROUD", "MUNICH"}

// String names the measure.
func (m Measure) String() string {
	if m < 0 || int(m) >= len(measureNames) {
		return fmt.Sprintf("Measure(%d)", int(m))
	}
	return measureNames[m]
}

// Probabilistic reports whether the measure answers probabilistic threshold
// queries (KindProbRange/KindProbTopK) rather than distance queries
// (KindTopK/KindRange).
func (m Measure) Probabilistic() bool {
	return m == MeasurePROUD || m == MeasureMUNICH
}

// ParseMeasure resolves a case-insensitive measure name ("euclidean",
// "uma", "uema", "dtw", "dust", "proud", "munich"). Failure wraps
// qerr.ErrUnknownMeasure.
func ParseMeasure(name string) (Measure, error) {
	for _, m := range Measures() {
		if strings.EqualFold(name, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("engine: %w: %q (want euclidean, uma, uema, dtw, dust, proud or munich)", qerr.ErrUnknownMeasure, name)
}

// Options configures an Engine.
type Options struct {
	// Measure selects the similarity measure (default Euclidean). Its
	// geometry — DTW band, UMA/UEMA window, decay and weight mode, DUST
	// tables — is the snapshot's corpus.Config.
	Measure Measure
	// Workers bounds the executor's parallelism (0 = GOMAXPROCS).
	// Request.Workers overrides it per request.
	Workers int
	// ShardSize is the number of candidates per work shard (0 = 64).
	ShardSize int
	// NoPrune disables every pruning device, forcing the naive full scan.
	// It exists as the reference arm of the engine benchmarks and tests.
	// It implies NoIndex.
	NoPrune bool
	// NoIndex disables both prefilters — tier 0 of the lock-step scans and
	// DTW's sketch-row bound — forcing the plain position-order scan
	// (the per-candidate pruning devices still run). Both are sound
	// prefilters, so results are bit-identical either way; this is the
	// parity oracle and the benchmarks' scan arm.
	NoIndex bool
	// MUNICH sets the bin count of the convolution MeasureMUNICH refines
	// with when a pair is too large to count exactly; it must match the
	// options of any naive scan being compared against.
	MUNICH munich.Options

	// indexThreshold is the minimum snapshot size at which a prefilter
	// engages (0 = defaultIndexThreshold; negative = always, which the
	// parity tests set). Below it the plain scan wins.
	indexThreshold int
}

// Stats counts the engine's work since construction (or the last
// ResetStats). The accounting identity Candidates = Completed +
// AbandonedEarly + PrunedByEnvelope + ResolvedByBounds + ResolvedEarly
// always holds; Candidates - Completed is the work pruning saved. Only
// queries move the counters: Distance, the reference lookup, does not.
type Stats struct {
	// Candidates is the number of query-candidate pairs examined.
	Candidates int64 `json:"candidates"`
	// Completed is the number of full distance computations (or, for the
	// probabilistic measures, full probability refines) that ran to
	// completion — the figure pruning exists to minimise.
	Completed int64 `json:"completed"`
	// AbandonedEarly counts scans abandoned mid-accumulation, DTW's on a
	// row minimum alone or plus LB_Keogh's suffix alike.
	AbandonedEarly int64 `json:"abandoned_early"`
	// PrunedByEnvelope counts DTW candidates excluded by LB_Kim's endpoint
	// bound or LB_Keogh's envelope bound alone, without touching the DTW
	// kernel.
	PrunedByEnvelope int64 `json:"pruned_by_envelope"`
	// ResolvedByBounds counts MUNICH candidates whose probabilistic
	// predicate was decided by the bounding intervals, the moment bracket or
	// the sample-pair bound without the full combination-counting refine.
	ResolvedByBounds int64 `json:"resolved_by_bounds"`
	// ResolvedEarly counts PROUD candidates whose predicate was decided by
	// the sound prefix bounds after only a prefix of timestamps.
	ResolvedEarly int64 `json:"resolved_early"`
	// BucketsVisited and BucketsPruned are always zero: they counted the
	// sketch bucket tree DTW used to walk, and stay on the wire so readers
	// of the JSON shape keep decoding it.
	BucketsVisited int64 `json:"buckets_visited"`
	BucketsPruned  int64 `json:"buckets_pruned"`
	// SeriesSkippedByIndex counts series a prefilter excluded before they
	// became candidates (the query series itself is never counted): by
	// tier 0's coarse bound for the lock-step measures and PROUD, by the
	// sketch-row bound for DTW. For resident queries, Candidates +
	// SeriesSkippedByIndex = queries * (N - 1); for ad-hoc ones, queries * N.
	SeriesSkippedByIndex int64 `json:"series_skipped_by_index"`
}

// Merge returns the field-wise sum of two stats — the aggregation the
// server folds each finished query's work into.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		Candidates:       s.Candidates + o.Candidates,
		Completed:        s.Completed + o.Completed,
		AbandonedEarly:   s.AbandonedEarly + o.AbandonedEarly,
		PrunedByEnvelope: s.PrunedByEnvelope + o.PrunedByEnvelope,
		ResolvedByBounds: s.ResolvedByBounds + o.ResolvedByBounds,
		ResolvedEarly:    s.ResolvedEarly + o.ResolvedEarly,

		BucketsVisited:       s.BucketsVisited + o.BucketsVisited,
		BucketsPruned:        s.BucketsPruned + o.BucketsPruned,
		SeriesSkippedByIndex: s.SeriesSkippedByIndex + o.SeriesSkippedByIndex,
	}
}

// Pruned returns the number of candidates that never paid for a full
// computation (the accounting identity's complement of Completed).
func (s Stats) Pruned() int64 { return s.Candidates - s.Completed }

// String renders the counters in the one-line form the CLI and the /stats
// endpoint report. The prefilter clause appears whenever a prefilter skipped
// anything.
func (s Stats) String() string {
	pct := 0.0
	if s.Candidates > 0 {
		pct = 100 * float64(s.Pruned()) / float64(s.Candidates)
	}
	line := fmt.Sprintf("%d candidates, %d completed, %d abandoned early, %d envelope-pruned, %d resolved by bounds, %d resolved on a prefix (%.1f%% of the scan skipped)",
		s.Candidates, s.Completed, s.AbandonedEarly, s.PrunedByEnvelope, s.ResolvedByBounds, s.ResolvedEarly, pct)
	if s.SeriesSkippedByIndex > 0 {
		line += fmt.Sprintf("; index: %d series skipped", s.SeriesSkippedByIndex)
	}
	return line
}

// Engine answers pruned top-k and range similarity queries over one corpus
// snapshot. It is safe for concurrent use; all methods see the snapshot's
// frozen state regardless of later corpus mutations.
type Engine struct {
	snap *corpus.Snapshot
	cfg  corpus.Config // snap's geometry: the engine's only one
	opts Options

	vecs         rows // scanned vectors (observations, or UMA/UEMA-filtered)
	upper, lower rows // per-series LB_Keogh envelopes (read by DTW)
	energy       rows // per-series observation energy, stride 1 (read by PROUD)

	pre *prefilter // the measure's prefilter; nil when queries run the plain scan

	// Work counters, one per outcome. Every series a query meets lands in
	// exactly one, so Stats.Candidates is the sum of all but the prefilter's
	// and the accounting identity holds by construction. Batches add their
	// tallies here once each (scan).
	outcomes counters
}

// outcome is how one series a query met was resolved: the last stage of its
// measure's cascade it reached. Each maps to one Stats counter.
type outcome int

const (
	skipped        outcome = iota // the prefilter's bound dropped it before it became a candidate (SeriesSkippedByIndex)
	completed                     // the full distance or refine ran (Completed)
	abandoned                     // stopped mid-accumulation (AbandonedEarly)
	lbPruned                      // DTW's LB_Kim or LB_Keogh alone excluded it (PrunedByEnvelope)
	boundResolved                 // MUNICH's intervals, bracket or sample-pair bound decided it (ResolvedByBounds)
	prefixResolved                // PROUD's prefix bounds decided it (ResolvedEarly)
	numOutcomes
)

// tally is one batch's outcome counts: the steps count into it, and the
// shared counters take one add per outcome per batch rather than one per
// candidate.
type tally [numOutcomes]int64

// counters are outcome counts the batches of concurrent workers add to.
type counters [numOutcomes]atomic.Int64

// add folds one batch's tally into the counters.
func (c *counters) add(t *tally) {
	for o, n := range t {
		if n != 0 {
			c[o].Add(n)
		}
	}
}

// stats reads the counters as Stats.
func (c *counters) stats() Stats {
	s := Stats{
		Completed:        c[completed].Load(),
		AbandonedEarly:   c[abandoned].Load(),
		PrunedByEnvelope: c[lbPruned].Load(),
		ResolvedByBounds: c[boundResolved].Load(),
		ResolvedEarly:    c[prefixResolved].Load(),

		SeriesSkippedByIndex: c[skipped].Load(),
	}
	s.Candidates = s.Completed + s.AbandonedEarly + s.PrunedByEnvelope + s.ResolvedByBounds + s.ResolvedEarly
	return s
}

// NewFromSnapshot builds an engine over a corpus snapshot by binding the
// arena columns its measure reads; nothing is derived, copied or gathered,
// whatever the snapshot's size and whether or not it is dense.
func NewFromSnapshot(snap *corpus.Snapshot, opts Options) (*Engine, error) {
	if snap == nil || snap.Len() == 0 {
		return nil, errors.New("engine: nil or empty snapshot")
	}
	if opts.ShardSize <= 0 {
		opts.ShardSize = 64
	}
	if opts.Measure == MeasureMUNICH && !snap.HasSamples() {
		return nil, errors.New("engine: MeasureMUNICH requires every resident series to carry a sample model (SamplesPerTS > 0)")
	}
	cols := snap.Arena()
	vecs, pre, err := plan(opts.Measure, cols)
	if err != nil {
		return nil, err
	}
	// Every other column is bound whatever the measure: binding one reads
	// nothing.
	e := &Engine{snap: snap, cfg: snap.Config(), opts: opts, vecs: vecs,
		upper: column(cols.Upper, cols.Rows), lower: column(cols.Lower, cols.Rows), energy: column(cols.Energy, cols.Rows)}
	e.resolvePrefilter(pre)
	return e, nil
}

// plan is each measure's plan, decided here and nowhere else, over one set
// of corpus columns — a snapshot's, or the one row an ad-hoc query derived:
// the column it scans, and the column and stage of its prefilter (none for
// DUST, which reads the entries' error models through the evaluator and phi
// tables the snapshot shares, and MUNICH, which reads their samples).
func plan(m Measure, cols *corpus.Columns) (vecs rows, pre prefilter, err error) {
	idx := cols.Rows
	vecs, pre = column(cols.Values, idx), prefilter{stage: distPrefilter}
	switch m {
	case MeasureEuclidean:
		pre.rows = column(cols.CoarseV, idx)
	case MeasureUMA:
		vecs, pre.rows = column(cols.UMA, idx), column(cols.CoarseU, idx)
	case MeasureUEMA:
		vecs, pre.rows = column(cols.UEMA, idx), column(cols.CoarseE, idx)
	case MeasureDTW:
		pre.rows, pre.dtw = column(cols.Sketch, idx), true
	case MeasurePROUD:
		pre.rows, pre.stage = column(cols.CoarseV, idx), proudPrefilter
	case MeasureDUST, MeasureMUNICH:
		pre.stage = noPrefilter
	default:
		err = fmt.Errorf("engine: %w: %v", qerr.ErrUnknownMeasure, m)
	}
	return vecs, pre, err
}

// Snapshot returns the corpus snapshot the engine serves.
func (e *Engine) Snapshot() *corpus.Snapshot { return e.snap }

// Stats returns a snapshot of the work counters. A running query moves them
// a batch (ShardSize candidates) at a time, as each batch ends.
func (e *Engine) Stats() Stats { return e.outcomes.stats() }

// ResetStats zeroes the work counters.
func (e *Engine) ResetStats() {
	for o := range e.outcomes {
		e.outcomes[o].Store(0)
	}
}

// dist evaluates the measure's distance between a prepared query and
// candidate ci under a cutoff in squared-distance space, touching no
// counter. It returns the exact distance and completed when the computation
// ran to the end (which implies dist^2 <= cutoff); any other outcome means
// the candidate was excluded by a lower bound or abandoned mid-scan and
// cannot have distance <= the distance whose square the cutoff came from.
// done (nil = never) threads cooperative cancellation into the one kernel
// long enough to need mid-candidate polling, the DTW row loop. scratch
// (nil = allocate) lends the DTW kernel its DP row and suffix sums.
func (e *Engine) dist(pq *prepared, ci int, cutoff2 float64, done <-chan struct{}, scratch *distance.DTWScratch) (float64, outcome, error) {
	if e.opts.NoPrune {
		cutoff2 = math.Inf(1)
	}
	var d float64
	var complete bool
	var err error
	switch e.opts.Measure {
	case MeasureEuclidean, MeasureUMA, MeasureUEMA:
		d2, complete, err := distance.SquaredEuclideanEarlyAbandon(pq.vec, e.vecs.at(ci), cutoff2)
		if err != nil || !complete {
			return 0, abandoned, err
		}
		return math.Sqrt(d2), completed, nil
	case MeasureDTW:
		// Tiered prune cascade, cheapest first: the O(1) LB_Kim endpoint
		// bound, then the O(n) LB_Keogh envelope bound, then the
		// early-abandoning DP itself, which also abandons once a row's
		// minimum plus LB_Keogh's terms still ahead exceeds the cut (the
		// scratch keeps them; counted as abandoned). Every tier is a sound
		// lower bound on DTW^2, so a candidate any tier excludes could never
		// have completed under the cutoff — results are identical, only
		// cheaper.
		if distance.LBKimSquared(pq.vec, e.vecs.at(ci)) > cutoff2 {
			return 0, lbPruned, nil
		}
		lb, lbErr := scratch.LBKeoghSquared(pq.vec, e.upper.at(ci), e.lower.at(ci), cutoff2)
		if lbErr != nil {
			return 0, 0, lbErr
		}
		if lb > cutoff2 {
			return 0, lbPruned, nil
		}
		d, complete, err = distance.DTWBandEarlyAbandonScratch(pq.vec, e.vecs.at(ci), e.cfg.Band, cutoff2, done, scratch)
	case MeasureDUST:
		// prepare validated the query, the corpus every entry at insert.
		d, complete, err = e.snap.Dust().DistanceEarlyAbandonValidated(pq.pdf, e.snap.Entry(ci).PDF, cutoff2)
	default:
		return 0, 0, qerr.BadRequestf("engine: measure %v defines match probabilities, not distances (use KindProbRange/KindProbTopK)", e.opts.Measure)
	}
	if err != nil || !complete {
		return 0, abandoned, err
	}
	return d, completed, nil
}

// Distance returns the measure's exact distance between two series of the
// snapshot (no pruning, no effect on Stats) — the reference the pruned paths
// must agree with.
func (e *Engine) Distance(qi, ci int) (float64, error) {
	if err := e.checkIndex(ci); err != nil {
		return 0, err
	}
	pq, err := e.prepareIndex(qi)
	if err != nil {
		return 0, err
	}
	d, _, err := e.dist(pq, ci, math.Inf(1), nil, nil)
	return d, err
}

func (e *Engine) checkIndex(i int) error {
	if i < 0 || i >= e.snap.Len() {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("series index %d outside [0, %d)", i, e.snap.Len()))
	}
	return nil
}
