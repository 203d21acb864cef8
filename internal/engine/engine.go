// Package engine is the query-serving layer of the reproduction: a top-k /
// range similarity engine that sits above a corpus snapshot and prunes
// aggressively before any work reaches the hot distance kernels.
//
// There is one way in — Run (RunStream with incremental delivery) takes a
// declarative Request — and one path behind it, the same four stages for
// every measure and every kind:
//
//	source → tier 0 / bounds → refine → collect
//
// Source. The candidates of a request are every snapshot position but the
// query's own, cut into ShardSize shards that the work-stealing executor of
// internal/core drains (scan.go). Banded DTW alone has a second source: it
// walks the snapshot's sketch bucket tree best-first (index.go), because
// its kernel is dear enough for the walk to pay.
//
// Tier 0 / bounds. Before a candidate's series row is touched, the measure's
// cheap bound is tested against the request's cut: the 16-segment Jensen
// bound over the corpus' filter columns for the lock-step measures
// (Euclidean, UMA, UEMA) and PROUD (tier0.go), the candidate's own sketch
// row for DTW. A candidate dropped here is counted in
// Stats.SeriesSkippedByIndex and never reaches a kernel.
//
// Refine. Survivors run the measure's own pruned kernel against the same
// cut: the lock-step measures early-abandon the squared-distance
// accumulation; DTW checks LB_Kim and LB_Keogh, then runs a DP that
// abandons per row; DUST early-abandons the Equation 13 accumulation over
// one shared set of phi tables; MUNICH walks a segment-envelope bound, the
// exact bounding-interval prune and a sample-pair probability bound before
// a refine that abandons in the estimator's own arithmetic; PROUD
// accumulates its distance moments over a prefix of timestamps and stops as
// soon as sound prefix bounds force the predicate (prob.go).
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
// The engine is built over an immutable corpus.Snapshot (NewFromSnapshot)
// and owns no data and no geometry. The per-candidate artifacts every device
// needs — LB_Keogh envelopes, filtered vectors, suffix energies, filter
// columns, sketch rows — are columns of the corpus arenas, maintained
// incrementally by the corpus; the engine reads them in place, one layout
// for every snapshot: row i of a column on a dense snapshot, row Rows[i]
// through the snapshot's position -> row index while deleted rows await
// compaction (corpus.Snapshot.Arena). The band, filter window, decay, weight
// mode, DUST tables and segment count are the snapshot's corpus.Config and
// nothing else — a caller wanting another window builds another corpus. So
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
	// samples), pruned by envelope and bounding-interval bounds before any
	// combination counting.
	MeasureMUNICH
)

// Measures lists every measure the engine serves, in declaration order.
func Measures() []Measure {
	return []Measure{MeasureEuclidean, MeasureUMA, MeasureUEMA, MeasureDTW, MeasureDUST, MeasurePROUD, MeasureMUNICH}
}

// String names the measure.
func (m Measure) String() string {
	switch m {
	case MeasureEuclidean:
		return "Euclidean"
	case MeasureUMA:
		return "UMA"
	case MeasureUEMA:
		return "UEMA"
	case MeasureDTW:
		return "DTW"
	case MeasureDUST:
		return "DUST"
	case MeasurePROUD:
		return "PROUD"
	case MeasureMUNICH:
		return "MUNICH"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
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
	// tables, MUNICH segment count — is the snapshot's corpus.Config.
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
	// the sketch bucket index DTW walks — forcing the plain sharded scan
	// (the per-candidate pruning devices still run). Both are sound
	// prefilters, so results are bit-identical either way; this is the
	// parity oracle and the benchmarks' scan arm.
	NoIndex bool
	// IndexThreshold is the minimum snapshot size at which a prefilter
	// engages (0 = 1024; negative = always, which the parity tests use).
	// Below it the plain scan wins.
	IndexThreshold int
	// MUNICH configures the probability estimator MeasureMUNICH refines
	// with; it must match the options of any naive scan being compared
	// against.
	MUNICH munich.Options
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
	// AbandonedEarly counts scans abandoned mid-accumulation.
	AbandonedEarly int64 `json:"abandoned_early"`
	// PrunedByEnvelope counts candidates excluded by an envelope lower
	// bound alone: LB_Keogh for DTW, the segment-envelope filter for
	// MUNICH. Neither touches the underlying kernel.
	PrunedByEnvelope int64 `json:"pruned_by_envelope"`
	// ResolvedByBounds counts MUNICH candidates whose probabilistic
	// predicate was decided by the bounding-interval or sample-pair bounds
	// without the full combination-counting refine.
	ResolvedByBounds int64 `json:"resolved_by_bounds"`
	// ResolvedEarly counts PROUD candidates whose predicate was decided by
	// the sound prefix bounds after only a prefix of timestamps.
	ResolvedEarly int64 `json:"resolved_early"`
	// BucketsVisited and BucketsPruned count sketch-index bucket decisions:
	// a pruned bucket's members were never candidates at all. Zero on
	// engines running the linear scan, tier 0 included (DTW alone walks
	// the bucket tree).
	BucketsVisited int64 `json:"buckets_visited"`
	BucketsPruned  int64 `json:"buckets_pruned"`
	// SeriesSkippedByIndex counts series a prefilter excluded before they
	// became candidates (the query series itself is never counted): by
	// tier 0's coarse bound for the lock-step measures and PROUD, by a
	// bucket or sketch-row bound for DTW. For resident queries, Candidates +
	// SeriesSkippedByIndex = queries * (N - 1); for ad-hoc ones, queries * N.
	SeriesSkippedByIndex int64 `json:"series_skipped_by_index"`
}

// Merge returns the field-wise sum of two stats — the aggregation the
// server uses to keep cumulative accounting across engine rebuilds.
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
// anything; bucket counts only for the measure that walks the bucket tree.
func (s Stats) String() string {
	pct := 0.0
	if s.Candidates > 0 {
		pct = 100 * float64(s.Pruned()) / float64(s.Candidates)
	}
	line := fmt.Sprintf("%d candidates, %d completed, %d abandoned early, %d envelope-pruned, %d resolved by bounds, %d resolved on a prefix (%.1f%% of the scan skipped)",
		s.Candidates, s.Completed, s.AbandonedEarly, s.PrunedByEnvelope, s.ResolvedByBounds, s.ResolvedEarly, pct)
	buckets := s.BucketsVisited > 0 || s.BucketsPruned > 0
	if buckets || s.SeriesSkippedByIndex > 0 {
		line += "; index: "
		if buckets {
			line += fmt.Sprintf("%d buckets visited, %d pruned, ", s.BucketsVisited, s.BucketsPruned)
		}
		line += fmt.Sprintf("%d series skipped", s.SeriesSkippedByIndex)
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

	vecs         rows    // scanned vectors (observations or filtered)
	upper, lower rows    // per-series LB_Keogh envelopes (DTW only)
	suffix       rows    // per-series suffix energies (PROUD only)
	varD         float64 // per-timestamp D_i variance sum (PROUD only)

	// At most one prefilter is engaged (see resolveIndex): t0, the
	// filter columns the lock-step and PROUD scans test first, or idx, the
	// engine's view of the snapshot's sketch index, which DTW walks instead
	// of scanning. Both nil when queries run the plain sharded scan.
	t0  *tier0
	idx *engineIndex

	// Work counters. Every examined candidate lands in exactly one outcome
	// slot, so Stats.Candidates is their sum and the accounting identity
	// holds by construction.
	outcomes       [numOutcomes]atomic.Int64
	bucketsVisited atomic.Int64
	bucketsPruned  atomic.Int64
	seriesSkipped  atomic.Int64
}

// outcome is how one examined candidate was resolved; each maps to one
// Stats counter.
type outcome int

const (
	completed      outcome = iota // the full distance or refine ran (Stats.Completed)
	abandoned                     // stopped mid-accumulation (AbandonedEarly)
	envelopePruned                // an envelope bound alone excluded it (PrunedByEnvelope)
	boundResolved                 // MUNICH interval / sample-pair bounds decided it (ResolvedByBounds)
	prefixResolved                // PROUD prefix bounds decided it (ResolvedEarly)
	numOutcomes
)

// count records one examined candidate. A candidate whose computation was
// cancelled or failed is never counted.
func (e *Engine) count(o outcome) { e.outcomes[o].Add(1) }

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
	e := &Engine{snap: snap, cfg: snap.Config(), opts: opts}
	cols := snap.Arena()
	idx := cols.Rows

	switch opts.Measure {
	case MeasureEuclidean:
		e.vecs = column(cols.Values, idx)
	case MeasureUMA:
		e.vecs = column(cols.UMA, idx)
	case MeasureUEMA:
		e.vecs = column(cols.UEMA, idx)
	case MeasureDTW:
		e.vecs, e.upper, e.lower = column(cols.Values, idx), column(cols.Upper, idx), column(cols.Lower, idx)
	case MeasureDUST:
		// No column: DUST reads the entries' error models, through the
		// evaluator (and its phi tables) the snapshot shares.
	case MeasurePROUD:
		e.vecs, e.suffix = column(cols.Values, idx), column(cols.Suffix, idx)
		// The same arithmetic a naive scan feeds proud.Distance with
		// (QuerySigma and CandSigma both the snapshot's reported sigma).
		sigma := snap.ReportedSigma()
		e.varD = sigma*sigma + sigma*sigma
	case MeasureMUNICH:
		if !snap.HasSamples() {
			return nil, errors.New("engine: MeasureMUNICH requires every resident series to carry a sample model (SamplesPerTS > 0)")
		}
	default:
		return nil, fmt.Errorf("engine: %w: %v", qerr.ErrUnknownMeasure, opts.Measure)
	}
	e.resolveIndex(cols)
	return e, nil
}

// Measure reports the measure the engine was built for.
func (e *Engine) Measure() Measure { return e.opts.Measure }

// Snapshot returns the corpus snapshot the engine serves.
func (e *Engine) Snapshot() *corpus.Snapshot { return e.snap }

// Stats returns a snapshot of the work counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Completed:        e.outcomes[completed].Load(),
		AbandonedEarly:   e.outcomes[abandoned].Load(),
		PrunedByEnvelope: e.outcomes[envelopePruned].Load(),
		ResolvedByBounds: e.outcomes[boundResolved].Load(),
		ResolvedEarly:    e.outcomes[prefixResolved].Load(),

		BucketsVisited:       e.bucketsVisited.Load(),
		BucketsPruned:        e.bucketsPruned.Load(),
		SeriesSkippedByIndex: e.seriesSkipped.Load(),
	}
	s.Candidates = s.Completed + s.AbandonedEarly + s.PrunedByEnvelope + s.ResolvedByBounds + s.ResolvedEarly
	return s
}

// ResetStats zeroes the work counters.
func (e *Engine) ResetStats() {
	for o := range e.outcomes {
		e.outcomes[o].Store(0)
	}
	e.bucketsVisited.Store(0)
	e.bucketsPruned.Store(0)
	e.seriesSkipped.Store(0)
}

// dist evaluates the measure's distance between a prepared query and
// candidate ci under a cutoff in squared-distance space, touching no
// counter. It returns the exact distance and completed when the computation
// ran to the end (which implies dist^2 <= cutoff); any other outcome means
// the candidate was excluded by a lower bound or abandoned mid-scan and
// cannot have distance <= the distance whose square the cutoff came from.
// done (nil = never) threads cooperative cancellation into the one kernel
// long enough to need mid-candidate polling, the DTW row loop. scratch
// (nil = allocate) lends the DTW kernel its DP rows.
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
		// early-abandoning DP itself. Every tier is a sound lower bound on
		// DTW^2, so a candidate any tier excludes could never have completed
		// under the cutoff — results are identical, only cheaper.
		if distance.LBKimSquared(pq.vec, e.vecs.at(ci)) > cutoff2 {
			return 0, envelopePruned, nil
		}
		lb, lbErr := distance.LBKeoghSquared(pq.vec, e.upper.at(ci), e.lower.at(ci), cutoff2)
		if lbErr != nil {
			return 0, 0, lbErr
		}
		if lb > cutoff2 {
			return 0, envelopePruned, nil
		}
		d, complete, err = distance.DTWBandEarlyAbandonScratch(pq.vec, e.vecs.at(ci), e.cfg.Band, cutoff2, done, scratch)
	case MeasureDUST:
		d, complete, err = e.snap.Dust().DistanceEarlyAbandon(pq.pdf, e.snap.Entry(ci).PDF, cutoff2)
	default:
		return 0, 0, qerr.BadRequestf("engine: measure %v defines match probabilities, not distances (use KindProbRange/KindProbTopK)", e.opts.Measure)
	}
	if err != nil || !complete {
		return 0, abandoned, err
	}
	return d, completed, nil
}

// distPruned is dist for a candidate of a running query: it counts the
// outcome and reports whether the distance completed.
func (e *Engine) distPruned(pq *prepared, ci int, cutoff2 float64, done <-chan struct{}, scratch *distance.DTWScratch) (float64, bool, error) {
	d, o, err := e.dist(pq, ci, cutoff2, done, scratch)
	if err != nil {
		return 0, false, err
	}
	e.count(o)
	return d, o == completed, nil
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
