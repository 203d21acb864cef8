// Package engine is the query-serving layer of the reproduction: a top-k /
// range similarity engine that sits above a corpus snapshot and prunes
// aggressively before any work reaches the hot distance kernels.
//
// Pruning devices, one family per measure:
//
//   - lock-step measures (Euclidean, UMA, UEMA over the filtered series)
//     first test a 16-segment Jensen lower bound from the corpus' dense
//     filter columns (tier 0, tier0.go), then early-abandon the
//     squared-distance accumulation once the running sum exceeds the
//     current k-th best;
//   - banded DTW walks the sketch bucket tree (index.go), then checks the
//     LB_Keogh envelope lower bound and only runs the DP — itself
//     early-abandoning per row — when the bound cannot exclude the
//     candidate;
//   - DUST early-abandons the Equation 13 accumulation and shares a single
//     evaluator, and therefore a single set of phi lookup tables, across
//     every query of a batch;
//   - MUNICH (probabilistic queries) walks a segment-envelope lower bound,
//     the exact bounding-interval prune and (when the refine is exact) a
//     per-timestamp sample-pair probability bound; surviving candidates
//     pay for a refine step that abandons early in the estimator's own
//     arithmetic;
//   - PROUD (probabilistic queries) pushes tier 0's bracket of the squared
//     gap through its moment bounds, then accumulates the distance moments
//     over a prefix of timestamps and stops as soon as the sound prefix
//     bounds (Stream.earlyDecision's machinery plus suffix-energy gap
//     bounds) force the predicate outcome.
//
// Since the corpus refactor the engine is built over an immutable
// corpus.Snapshot (NewFromSnapshot); building over a core.Workload (New)
// is a thin wrapper over the workload's snapshot. The per-candidate
// artifacts every device needs — LB_Keogh envelopes, filtered vectors,
// suffix energies, MUNICH segment envelopes, DUST phi tables — are
// maintained incrementally by the corpus and reused here whenever the
// engine options match the corpus geometry, so constructing an engine for
// a fresh snapshot is nearly free and writers never invalidate a running
// query (snapshot isolation).
//
// Queries come in two shapes. Index queries (TopK, Range, ProbRange,
// ProbTopK and their batch forms) take a position in the snapshot and
// exclude the query series itself, exactly as the original batch harness
// did. Ad-hoc queries (Prepare + PreparedQuery methods) take an arbitrary
// series — observation vector, error model, sample model — that need not
// be resident in any corpus; the prepared-query object owns all per-query
// derived state (filtered vector, suffix energies, sample envelope) so
// repeated queries amortise their setup, and carries an optional
// per-request worker budget.
//
// Execution is batched and sharded: the candidate space of every query is
// cut into shards and the (query, shard) pairs are drained by the chunked
// work-stealing executor of internal/core (RunSharded). Workers cooperate
// through a per-query atomic bound — the k-th best distance among the
// candidates completed so far, query-wide (topKCollector) — which tightens
// pruning across shard boundaries while staying exact: a published bound is
// always the k-th best of a subset of candidates, hence an upper bound on
// the true k-th distance, so a candidate abandoned against it can never
// belong to the answer. Results
// are therefore bit-identical to the naive full scan for every worker
// count, which the tests assert.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"uncertts/internal/arena"
	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/dust"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
	"uncertts/internal/query"
	"uncertts/internal/timeseries"
)

// rows is the engine's per-candidate vector table in one of two layouts:
// a dense arena matrix (the fast path — row ci is arithmetic into one
// contiguous array, so a scan in candidate order is a sequential read) or a
// plain slice of views (the fallback for non-dense snapshots and for
// vectors derived locally when the engine options diverge from the corpus
// geometry). Both layouts serve bit-identical values.
type rows struct {
	mat   arena.Matrix
	views [][]float64
}

func matRows(m arena.Matrix) rows { return rows{mat: m} }
func viewRows(v [][]float64) rows { return rows{views: v} }
func (r rows) at(ci int) []float64 {
	if r.views != nil {
		return r.views[ci]
	}
	return r.mat.Row(ci)
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
	// one set of phi tables across the batch.
	MeasureDUST
	// MeasurePROUD serves probabilistic threshold queries (ProbRange,
	// ProbTopK) with PROUD's normal approximation of the squared distance
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
// queries (ProbRange/ProbTopK) rather than distance queries (TopK/Range).
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
	// Measure selects the similarity measure (default Euclidean).
	Measure Measure
	// Band is the Sakoe-Chiba half-width for MeasureDTW. Zero derives
	// max(1, n/10) from the series length n (the usual warping-window
	// heuristic); negative means unconstrained warping.
	Band int
	// W is the filter window half-width for UMA/UEMA (0 = the paper's 2).
	W int
	// Lambda is the UEMA decay (0 = the paper's 1).
	Lambda float64
	// Mode selects the Eq. 17/18 weight normalisation for UMA/UEMA.
	Mode timeseries.WeightMode
	// Workers bounds the executor's parallelism (0 = GOMAXPROCS). A
	// PreparedQuery can override it per request.
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
	// DUST configures the shared evaluator for MeasureDUST.
	DUST dust.Options
	// Segments is the envelope segment count of the MUNICH filter index
	// (0 = 16, clamped to the series length).
	Segments int
	// MUNICH configures the probability estimator MeasureMUNICH refines
	// with; it must match the options of any naive scan being compared
	// against.
	MUNICH munich.Options
}

// Stats counts the engine's work since construction (or the last
// ResetStats). The accounting identity Candidates = Completed +
// AbandonedEarly + PrunedByEnvelope + ResolvedByBounds + ResolvedEarly
// always holds; Candidates - Completed is the work pruning saved.
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
	// bucket or sketch-row bound for DTW. For index queries, Candidates +
	// SeriesSkippedByIndex = queries * (N - 1).
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
// endpoint report.
func (s Stats) String() string {
	pct := 0.0
	if s.Candidates > 0 {
		pct = 100 * float64(s.Pruned()) / float64(s.Candidates)
	}
	line := fmt.Sprintf("%d candidates, %d completed, %d abandoned early, %d envelope-pruned, %d resolved by bounds, %d resolved on a prefix (%.1f%% of the scan skipped)",
		s.Candidates, s.Completed, s.AbandonedEarly, s.PrunedByEnvelope, s.ResolvedByBounds, s.ResolvedEarly, pct)
	if s.BucketsVisited > 0 || s.BucketsPruned > 0 {
		line += fmt.Sprintf("; index: %d buckets visited, %d pruned, %d series skipped",
			s.BucketsVisited, s.BucketsPruned, s.SeriesSkippedByIndex)
	}
	return line
}

// Engine answers pruned top-k and range similarity queries over one corpus
// snapshot. It is safe for concurrent use; all methods see the snapshot's
// frozen state regardless of later corpus mutations.
type Engine struct {
	snap *corpus.Snapshot
	opts Options
	band int

	vecs         rows              // scanned vectors (observations or filtered)
	upper, lower rows              // per-series LB_Keogh envelopes (DTW only)
	dust         *dust.Dust        // shared evaluator (DUST only)
	varD         float64           // per-timestamp D_i variance sum (PROUD only)
	suffix       rows              // per-series suffix energies (PROUD only)
	envs         []munich.Envelope // per-series segment envelopes (MUNICH only)
	spans        [][2]int          // MUNICH segment geometry
	segments     int               // resolved MUNICH segment count

	// At most one prefilter is engaged (see resolveIndex): t0, the dense
	// filter columns the lock-step and PROUD scans test first, or idx, the
	// engine's view of the snapshot's sketch index, which DTW walks instead
	// of scanning. Both nil when queries run the plain sharded scan.
	t0  *tier0
	idx *engineIndex

	candidates     atomic.Int64
	completed      atomic.Int64
	abandoned      atomic.Int64
	pruned         atomic.Int64
	resolvedBounds atomic.Int64
	resolvedEarly  atomic.Int64
	bucketsVisited atomic.Int64
	bucketsPruned  atomic.Int64
	seriesSkipped  atomic.Int64
}

// New builds an engine over a prepared workload — a thin wrapper around
// NewFromSnapshot on the workload's corpus snapshot.
func New(w *core.Workload, opts Options) (*Engine, error) {
	if w == nil || w.Len() == 0 {
		return nil, errors.New("engine: nil or empty workload")
	}
	return NewFromSnapshot(w.Snapshot(), opts)
}

// NewFromSnapshot builds an engine over a corpus snapshot, reusing the
// snapshot's precomputed per-series artifacts whenever the engine options
// match the corpus geometry (the common case: zero-value options adopt the
// corpus defaults) and deriving them locally otherwise.
func NewFromSnapshot(snap *corpus.Snapshot, opts Options) (*Engine, error) {
	if snap == nil || snap.Len() == 0 {
		return nil, errors.New("engine: nil or empty snapshot")
	}
	cfg := snap.Config()
	if opts.W == 0 {
		opts.W = cfg.W
	}
	if opts.Lambda == 0 {
		opts.Lambda = cfg.Lambda
	}
	if opts.ShardSize <= 0 {
		opts.ShardSize = 64
	}
	e := &Engine{snap: snap, opts: opts}
	n := snap.SeriesLen()
	cols, dense := snap.Columns()
	filterReuse := false

	switch opts.Measure {
	case MeasureEuclidean:
		e.vecs = observations(snap)
	case MeasureUMA, MeasureUEMA:
		reuse := opts.W == cfg.W && opts.Mode == cfg.Mode &&
			//lint:allow floatcmp artifact reuse requires the bit-identical filter config; a near-miss must recompute
			(opts.Measure == MeasureUMA || opts.Lambda == cfg.Lambda)
		filterReuse = reuse
		if reuse && dense {
			if opts.Measure == MeasureUMA {
				e.vecs = matRows(cols.UMA)
			} else {
				e.vecs = matRows(cols.UEMA)
			}
			break
		}
		vecs := make([][]float64, snap.Len())
		for i := 0; i < snap.Len(); i++ {
			ent := snap.Entry(i)
			if reuse {
				if opts.Measure == MeasureUMA {
					vecs[i] = ent.UMA
				} else {
					vecs[i] = ent.UEMA
				}
				continue
			}
			var f []float64
			var err error
			if opts.Measure == MeasureUMA {
				f, err = timeseries.UncertainMovingAverage(ent.PDF.Observations, ent.Sigmas, opts.W, opts.Mode)
			} else {
				f, err = timeseries.UncertainExponentialMovingAverage(ent.PDF.Observations, ent.Sigmas, opts.W, opts.Lambda, opts.Mode)
			}
			if err != nil {
				return nil, fmt.Errorf("engine: filtering series %d: %w", ent.ID, err)
			}
			vecs[i] = f
		}
		e.vecs = viewRows(vecs)
	case MeasureDTW:
		e.vecs = observations(snap)
		e.band = opts.Band
		if e.band == 0 {
			e.band = n / 10
			if e.band < 1 {
				e.band = 1
			}
		}
		if e.band == cfg.Band && dense {
			e.upper, e.lower = matRows(cols.Upper), matRows(cols.Lower)
			break
		}
		upper := make([][]float64, snap.Len())
		lower := make([][]float64, snap.Len())
		for i := 0; i < snap.Len(); i++ {
			if ent := snap.Entry(i); e.band == cfg.Band {
				upper[i], lower[i] = ent.Upper, ent.Lower
			} else {
				upper[i], lower[i] = distance.Envelope(e.vecs.at(i), e.band)
			}
		}
		e.upper, e.lower = viewRows(upper), viewRows(lower)
	case MeasureDUST:
		if opts.DUST == cfg.DUST {
			e.dust = snap.Dust()
		} else {
			e.dust = dust.New(opts.DUST)
		}
	case MeasurePROUD:
		e.vecs = observations(snap)
		// The same arithmetic the naive matcher feeds proud.Distance with
		// (QuerySigma and CandSigma both the snapshot's reported sigma).
		sigma := snap.ReportedSigma()
		e.varD = sigma*sigma + sigma*sigma
		if dense {
			e.suffix = matRows(cols.Suffix)
		} else {
			suffix := make([][]float64, snap.Len())
			for i := 0; i < snap.Len(); i++ {
				suffix[i] = snap.Entry(i).Suffix
			}
			e.suffix = viewRows(suffix)
		}
	case MeasureMUNICH:
		if !snap.HasSamples() {
			return nil, errors.New("engine: MeasureMUNICH requires every resident series to carry a sample model (SamplesPerTS > 0)")
		}
		e.segments = opts.Segments
		if e.segments <= 0 {
			e.segments = 16
		}
		e.segments = munich.ClampSegments(n, e.segments)
		e.envs = make([]munich.Envelope, snap.Len())
		if e.segments == cfg.Segments {
			e.spans = snap.Spans()
			for i := 0; i < snap.Len(); i++ {
				e.envs[i] = snap.Entry(i).Env
			}
		} else {
			e.spans = munich.SegmentSpans(n, e.segments)
			for i := 0; i < snap.Len(); i++ {
				e.envs[i] = munich.BuildEnvelope(*snap.Entry(i).Samples, e.segments)
			}
		}
	default:
		return nil, fmt.Errorf("engine: %w: %v", qerr.ErrUnknownMeasure, opts.Measure)
	}
	e.resolveIndex(cfg, filterReuse)
	return e, nil
}

func observations(snap *corpus.Snapshot) rows {
	if cols, ok := snap.Columns(); ok {
		return matRows(cols.Values)
	}
	out := make([][]float64, snap.Len())
	for i := range out {
		out[i] = snap.Entry(i).PDF.Observations
	}
	return viewRows(out)
}

// Measure reports the measure the engine was built for.
func (e *Engine) Measure() Measure { return e.opts.Measure }

// Snapshot returns the corpus snapshot the engine serves.
func (e *Engine) Snapshot() *corpus.Snapshot { return e.snap }

// Stats returns a snapshot of the work counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Candidates:       e.candidates.Load(),
		Completed:        e.completed.Load(),
		AbandonedEarly:   e.abandoned.Load(),
		PrunedByEnvelope: e.pruned.Load(),
		ResolvedByBounds: e.resolvedBounds.Load(),
		ResolvedEarly:    e.resolvedEarly.Load(),

		BucketsVisited:       e.bucketsVisited.Load(),
		BucketsPruned:        e.bucketsPruned.Load(),
		SeriesSkippedByIndex: e.seriesSkipped.Load(),
	}
}

// ResetStats zeroes the work counters.
func (e *Engine) ResetStats() {
	e.candidates.Store(0)
	e.completed.Store(0)
	e.abandoned.Store(0)
	e.pruned.Store(0)
	e.resolvedBounds.Store(0)
	e.resolvedEarly.Store(0)
	e.bucketsVisited.Store(0)
	e.bucketsPruned.Store(0)
	e.seriesSkipped.Store(0)
}

// uncount retracts a candidate that will never resolve — a cancelled or
// failed computation — so the Stats accounting identity (Candidates equals
// the sum of the resolution counters) holds even for queries stopped by
// their context.
func (e *Engine) uncount() { e.candidates.Add(-1) }

// distPruned evaluates the measure's distance between a prepared query and
// candidate ci under a cutoff in squared-distance space. It returns the
// exact distance and true when the computation completed (which implies
// dist^2 <= cutoff2); a false return means the candidate was excluded by a
// lower bound or abandoned mid-scan and cannot have distance <= the
// distance whose square the cutoff came from. done (nil = never) threads
// cooperative cancellation into the one kernel long enough to need
// mid-candidate polling, the DTW row loop. scratch (nil = allocate) lends
// the DTW kernel its DP rows; workers keep one per work loop so the hot
// path allocates nothing per candidate.
func (e *Engine) distPruned(pq *PreparedQuery, ci int, cutoff2 float64, done <-chan struct{}, scratch *distance.DTWScratch) (float64, bool, error) {
	e.candidates.Add(1)
	if e.opts.NoPrune {
		cutoff2 = math.Inf(1)
	}
	switch e.opts.Measure {
	case MeasureEuclidean, MeasureUMA, MeasureUEMA:
		d2, complete, err := distance.SquaredEuclideanEarlyAbandon(pq.vec, e.vecs.at(ci), cutoff2)
		if err != nil {
			e.uncount()
			return 0, false, err
		}
		if !complete {
			e.abandoned.Add(1)
			return 0, false, nil
		}
		e.completed.Add(1)
		return math.Sqrt(d2), true, nil
	case MeasureDTW:
		// Tiered prune cascade, cheapest first: the O(1) LB_Kim endpoint
		// bound, then the O(n) LB_Keogh envelope bound, then the
		// early-abandoning DP itself. Every tier is a sound lower bound on
		// DTW^2, so a candidate any tier excludes could never have completed
		// under the cutoff — results are identical, only cheaper.
		if distance.LBKimSquared(pq.vec, e.vecs.at(ci)) > cutoff2 {
			e.pruned.Add(1)
			return 0, false, nil
		}
		lb, err := distance.LBKeoghSquared(pq.vec, e.upper.at(ci), e.lower.at(ci), cutoff2)
		if err != nil {
			e.uncount()
			return 0, false, err
		}
		if lb > cutoff2 {
			e.pruned.Add(1)
			return 0, false, nil
		}
		d, complete, err := distance.DTWBandEarlyAbandonScratch(pq.vec, e.vecs.at(ci), e.band, cutoff2, done, scratch)
		if err != nil {
			e.uncount()
			return 0, false, err
		}
		if !complete {
			e.abandoned.Add(1)
			return 0, false, nil
		}
		e.completed.Add(1)
		return d, true, nil
	case MeasureDUST:
		d, complete, err := e.dust.DistanceEarlyAbandon(pq.pdf, e.snap.Entry(ci).PDF, cutoff2)
		if err != nil {
			e.uncount()
			return 0, false, err
		}
		if !complete {
			e.abandoned.Add(1)
			return 0, false, nil
		}
		e.completed.Add(1)
		return d, true, nil
	case MeasurePROUD, MeasureMUNICH:
		e.uncount()
		return 0, false, qerr.BadRequestf("engine: measure %v defines match probabilities, not distances (use ProbRange/ProbTopK)", e.opts.Measure)
	default:
		e.uncount()
		return 0, false, fmt.Errorf("engine: %w: %v", qerr.ErrUnknownMeasure, e.opts.Measure)
	}
}

// Distance returns the measure's exact distance between two series of the
// snapshot (no pruning) — the reference the pruned paths must agree with.
func (e *Engine) Distance(qi, ci int) (float64, error) {
	if err := e.checkIndex(ci); err != nil {
		return 0, err
	}
	pq, err := e.PrepareIndex(qi)
	if err != nil {
		return 0, err
	}
	d, _, err := e.distPruned(pq, ci, math.Inf(1), nil, nil)
	return d, err
}

func (e *Engine) checkIndex(i int) error {
	if i < 0 || i >= e.snap.Len() {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("series index %d outside [0, %d)", i, e.snap.Len()))
	}
	return nil
}

// workersFor resolves the worker budget for a batch of prepared queries:
// the largest per-query override, falling back to the engine default.
func (e *Engine) workersFor(pqs []*PreparedQuery) int {
	workers := 0
	for _, pq := range pqs {
		if pq.Workers > workers {
			workers = pq.Workers
		}
	}
	if workers == 0 {
		workers = e.opts.Workers
	}
	return workers
}

// sharedBound is a monotonically decreasing float64 shared across the
// workers of one query: the tightest proven upper bound on the k-th best
// squared distance.
type sharedBound struct{ bits atomic.Uint64 }

func newSharedBound() *sharedBound {
	b := &sharedBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *sharedBound) get() float64 { return math.Float64frombits(b.bits.Load()) }

// lower publishes v if it improves (decreases) the bound.
func (b *sharedBound) lower(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// kHeap is a bounded max-heap over distances: it retains the k smallest
// values seen and exposes the current k-th best as the pruning bound.
type kHeap struct {
	k  int
	ds []float64
}

func newKHeap(k int) *kHeap { return &kHeap{k: k, ds: make([]float64, 0, k)} }

func (h *kHeap) full() bool { return len(h.ds) >= h.k }

// top returns the largest retained distance (only meaningful when full).
func (h *kHeap) top() float64 { return h.ds[0] }

func (h *kHeap) push(d float64) {
	if len(h.ds) < h.k {
		h.ds = append(h.ds, d)
		// sift up
		i := len(h.ds) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.ds[p] >= h.ds[i] {
				break
			}
			h.ds[p], h.ds[i] = h.ds[i], h.ds[p]
			i = p
		}
		return
	}
	if d >= h.ds[0] {
		return
	}
	h.ds[0] = d
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.ds) && h.ds[l] > h.ds[big] {
			big = l
		}
		if r < len(h.ds) && h.ds[r] > h.ds[big] {
			big = r
		}
		if big == i {
			return
		}
		h.ds[i], h.ds[big] = h.ds[big], h.ds[i]
		i = big
	}
}

// ulpUp inflates a squared bound by a few ulps so the sqrt-then-square
// round-trip (distances are stored as sqrt, bounds as squares) can never
// exclude a candidate that ties the k-th best exactly. The relative 1e-15
// margin is ~4 ulps — far above the round-trip error, far below any real
// distance gap — and costs no measurable pruning. A relative margin
// vanishes at v = 0 (exact-duplicate series), where ties would survive only
// because every kernel happens to compare with strict >; the absolute floor
// keeps a zero cutoff strictly above every distance that ties it.
func ulpUp(v float64) float64 {
	if v := v + v*1e-15; v > 0 {
		return v
	}
	return math.SmallestNonzeroFloat64
}

// TopK returns the k nearest neighbours of query qi under the engine's
// measure, excluding qi itself, sorted by ascending distance with ties
// broken by ID — exactly what a naive full scan (query.TopK over the exact
// distance) returns.
//
// Legacy surface: TopK is a thin wrapper over Run with a background
// context. New callers should build a Request and call Run directly, which
// additionally offers cancellation, deadlines and pagination.
func (e *Engine) TopK(qi, k int) ([]query.Neighbor, error) {
	res, err := e.Run(context.Background(), Request{Measure: e.opts.Measure, Kind: KindTopK, Index: &qi, K: k})
	if err != nil {
		return nil, err
	}
	return res.Neighbors, nil
}

// TopKBatch answers the top-k query for every query index in one batched,
// sharded, work-stealing pass. Results are per-query, in input order, and
// identical to running TopK on each query alone — or to the naive scan —
// for every worker count.
//
// Legacy surface: the batch methods remain the direct execution path (one
// executor pass shared by the whole batch); Run serves the same answers
// one request at a time with cancellation.
func (e *Engine) TopKBatch(queries []int, k int) ([][]query.Neighbor, error) {
	pqs, err := e.prepareIndexBatch(queries)
	if err != nil {
		return nil, err
	}
	return e.TopKPrepared(pqs, k)
}

// TopKPrepared answers the top-k query for every prepared query in one
// batched, sharded, work-stealing pass.
func (e *Engine) TopKPrepared(pqs []*PreparedQuery, k int) ([][]query.Neighbor, error) {
	return e.topKPrepared(context.Background(), pqs, k)
}

// topKCollector is the query-wide top-k accumulator every work item of one
// query shares, on the scan and on the indexed path alike: each completed
// candidate is offered under a mutex, and once k are known the k-th best
// distance tightens the query's shared bound. A heap per work item would
// only ever prove the k-th best of its own few dozen candidates, a far
// looser cut than the query's; completions are rare once the cut is tight,
// so the mutex is uncontended.
type topKCollector struct {
	mu   sync.Mutex
	h    *kHeap
	kept []query.Neighbor
}

func (c *topKCollector) offer(n query.Neighbor, b *sharedBound) {
	c.mu.Lock()
	c.h.push(n.Distance)
	if c.h.full() {
		b.lower(ulpUp(c.h.top() * c.h.top()))
	}
	// Strictly beyond the k-th best of the candidates seen so far is
	// provably outside the answer; ties stay, for the ID tie-break.
	if !c.h.full() || n.Distance <= c.h.top() {
		c.kept = append(c.kept, n)
	}
	c.mu.Unlock()
}

// topKPrepared is the top-k execution core: sharded scan under a context,
// polled at every (query, shard) work item and inside the DTW kernel.
func (e *Engine) topKPrepared(ctx context.Context, pqs []*PreparedQuery, k int) ([][]query.Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: %w", qerr.BadRequestf("k = %d must be at least 1", k))
	}
	if err := e.checkPrepared(pqs); err != nil {
		return nil, err
	}
	bounds := make([]*sharedBound, len(pqs))
	found := make([]*topKCollector, len(pqs))
	for q := range pqs {
		bounds[q] = pqs[q].boundRef()
		found[q] = &topKCollector{h: newKHeap(k)}
	}
	var err error
	if e.idx != nil {
		err = e.topKIndexed(ctx, pqs, k, bounds, found)
	} else {
		err = e.topKScan(ctx, pqs, k, bounds, found)
	}
	if err != nil {
		return nil, err
	}
	out := make([][]query.Neighbor, len(pqs))
	for q := range pqs {
		out[q] = nearestK(found[q].kept, k)
	}
	return out, nil
}

// topKScan offers every candidate the cascade completes, shard by shard in
// position order: tier 0 where the measure has one, then the measure's own
// pruned kernel, both against the query's live cut. Tier 0 first seeds that
// cut and holds one bound per resident series for every query in flight
// (seedCut), so its batches run in groups of one query per worker.
func (e *Engine) topKScan(ctx context.Context, pqs []*PreparedQuery, k int, bounds []*sharedBound, found []*topKCollector) error {
	n := e.snap.Len()
	shardSize := e.opts.ShardSize
	numShards := (n + shardSize - 1) / shardSize
	done := ctx.Done()
	workers := e.workersFor(pqs)
	group := len(pqs)
	if e.t0 != nil {
		if group = workers; group <= 0 {
			group = runtime.GOMAXPROCS(0)
		}
	}
	for g0 := 0; g0 < len(pqs); g0 += group {
		gn := min(group, len(pqs)-g0)
		var lbs [][]float64 // tier 0's raw bounds: lbs[q-g0][ci]
		if e.t0 != nil {
			lbs = make([][]float64, gn)
			err := core.RunShardedCtx(ctx, gn, 1, workers, func(lo, hi int) (err error) {
				for q := g0 + lo; q < g0+hi && err == nil; q++ {
					lbs[q-g0], err = e.seedCut(pqs[q], k, bounds[q])
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		err := core.RunShardedCtx(ctx, gn*numShards, 1, workers, func(lo, hi int) error {
			var scratch distance.DTWScratch // one DP-row pair per work batch, not per candidate
			for item := lo; item < hi; item++ {
				q, shard := g0+item/numShards, item%numShards
				pq := pqs[q]
				cLo, cHi := shard*shardSize, (shard+1)*shardSize
				if cHi > n {
					cHi = n
				}
				var skipped int64
				for ci := cLo; ci < cHi; ci++ {
					if ci == pq.self {
						continue
					}
					cut := bounds[q].get()
					if lbs != nil && lbs[q-g0][ci] > skipLimit(cut+pq.slack) {
						skipped++
						continue
					}
					d, ok, err := e.distPruned(pq, ci, cut, done, &scratch)
					if err != nil {
						return fmt.Errorf("engine: query %d candidate %d: %w", q, ci, err)
					}
					if ok {
						found[q].offer(query.Neighbor{ID: ci, Distance: d}, bounds[q])
					}
				}
				e.seriesSkipped.Add(skipped)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// nearestK orders the retained candidates of one query by (distance, ID) —
// the deterministic order every execution path merges by — and keeps the
// first k.
func nearestK(all []query.Neighbor, k int) []query.Neighbor {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].ID < all[j].ID
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Range returns the IDs of every series within eps of query qi under the
// engine's measure, excluding qi, in ascending ID order — identical to
// query.RangeQueryFunc over the exact distance.
//
// Legacy surface: Range is a thin wrapper over Run with a background
// context.
func (e *Engine) Range(qi int, eps float64) ([]int, error) {
	res, err := e.Run(context.Background(), Request{Measure: e.opts.Measure, Kind: KindRange, Index: &qi, Eps: eps})
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// rangePrepared is the execution core of Range for one prepared query.
// emit (nil = none) is invoked for every confirmed match as its shard
// completes — shard order, hence emission order, is nondeterministic under
// parallelism; the returned slice is always in ascending position order. A
// non-nil emit error aborts the scan.
func (e *Engine) rangePrepared(ctx context.Context, pq *PreparedQuery, eps float64, emit func(id int, dist float64) error) ([]int, error) {
	if err := e.checkPrepared([]*PreparedQuery{pq}); err != nil {
		return nil, err
	}
	if math.IsNaN(eps) || eps < 0 {
		return nil, fmt.Errorf("engine: %w", qerr.BadRequestf("eps = %v must be non-negative", eps))
	}
	if e.idx != nil {
		return e.rangeIndexed(ctx, pq, eps, emit)
	}
	n := e.snap.Len()
	shardSize := e.opts.ShardSize
	numShards := (n + shardSize - 1) / shardSize
	cutoff2 := ulpUp(eps * eps)
	done := ctx.Done()

	buckets := make([][]int, numShards)
	err := core.RunShardedCtx(ctx, numShards, 1, e.workersFor([]*PreparedQuery{pq}), func(lo, hi int) error {
		var scratch distance.DTWScratch // one DP-row pair per work batch, not per candidate
		for shard := lo; shard < hi; shard++ {
			cLo, cHi := shard*shardSize, (shard+1)*shardSize
			if cHi > n {
				cHi = n
			}
			var ids []int
			var skipped int64
			for ci := cLo; ci < cHi; ci++ {
				if ci == pq.self {
					continue
				}
				if e.coarseSkip(pq, ci, cutoff2) {
					skipped++
					continue
				}
				d, ok, err := e.distPruned(pq, ci, cutoff2, done, &scratch)
				if err != nil {
					return fmt.Errorf("engine: candidate %d: %w", ci, err)
				}
				if ok && d <= eps {
					ids = append(ids, ci)
					if emit != nil {
						if err := emit(ci, d); err != nil {
							return err
						}
					}
				}
			}
			e.seriesSkipped.Add(skipped)
			buckets[shard] = ids
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []int
	for _, ids := range buckets {
		out = append(out, ids...)
	}
	return out, nil
}
