// Package uncertts is a Go reproduction of "Uncertain Time-Series
// Similarity: Return to the Basics" (Dallachiesa, Nushi, Mirylenka,
// Palpanas; PVLDB 5(11), 2012).
//
// It implements, from scratch on the standard library:
//
//   - the three uncertain-similarity techniques the paper surveys — MUNICH
//     (repeated-observation counting), PROUD (central-limit probabilistic
//     ranges) and DUST (Bayesian per-value dissimilarity) — plus the plain
//     Euclidean baseline;
//   - the paper's own contribution, the UMA and UEMA uncertainty-weighted
//     moving-average measures;
//   - the full evaluation methodology of Section 4: ground-truth
//     construction, per-technique threshold calibration, tau calibration,
//     precision/recall/F1 scoring; and
//   - deterministic synthetic stand-ins for the 17 UCR datasets, an
//     error-perturbation engine (uniform / normal / exponential, constant
//     and mixed sigma), and runners that regenerate every figure of the
//     paper's evaluation.
//
// # Quick start
//
//	ds, _ := uncertts.GenerateDataset("CBF", uncertts.DatasetOptions{MaxSeries: 40, Length: 96, Seed: 1})
//	pert, _ := uncertts.NewConstantPerturber(uncertts.Normal, 0.6, 96, 1)
//	w, _ := uncertts.NewWorkload(ds, pert, uncertts.WorkloadConfig{K: 10})
//	metrics, _ := uncertts.Evaluate(w, uncertts.Technique{Measure: uncertts.MeasureUEMA}, nil)
//	fmt.Printf("UEMA F1: %.3f\n", uncertts.AverageMetrics(metrics).F1)
//
// # Serving
//
// Beyond the batch evaluation, the package queries a mutable corpus with
// snapshot isolation (see NewCorpus, NewQueryEngineFromSnapshot). Queries are
// declarative: build one QueryRequest and execute it with QueryEngine.Run
// under a context whose cancellation and deadline the whole stack honours:
//
//	c := uncertts.NewCorpus(uncertts.CorpusConfig{ReportedSigma: 0.6})
//	for _, obs := range series {
//		if _, err := c.Insert(uncertts.CorpusSeries{Values: obs}); err != nil { ... }
//	}
//	e, _ := uncertts.NewQueryEngineFromSnapshot(c.Snapshot(), uncertts.QueryEngineOptions{})
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	qi := 0 // the snapshot position of the query series
//	res, _ := e.Run(ctx, uncertts.QueryRequest{Kind: uncertts.QueryTopK, Index: &qi, K: 5})
//	_ = res.Neighbors
//
// cmd/uncertserve serves the same stack over HTTP/JSON, including a
// streaming NDJSON endpoint (/query/stream), per-request timeouts, shards
// (-shards) and a durable corpus (-data): mutations are written ahead to a
// checksummed log, checkpoints bound recovery time, and a restart (or crash)
// recovers the exact acknowledged state. cmd/uncertquery -data queries a
// durable corpus directly.
//
// The cmd/uncertbench binary regenerates any figure:
//
//	uncertbench -exp fig5 -scale medium
//
// README.md holds the system inventory (Architecture, Package map).
package uncertts

import (
	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/dust"
	"uncertts/internal/engine"
	"uncertts/internal/experiments"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// ---- Time series substrate ----

// Dataset is a named collection of series.
type Dataset = timeseries.Dataset

// WeightMode selects the Eq. 17/18 weight normalisation of the UMA/UEMA
// filters.
type WeightMode = timeseries.WeightMode

// WeightModeNormalized divides by the sum of the weights actually used,
// i.e. a standard weighted moving average.
const WeightModeNormalized = timeseries.WeightModeNormalized

// UMA applies the Uncertain Moving Average filter (Eq. 17).
func UMA(values, sigmas []float64, w int, mode WeightMode) ([]float64, error) {
	return timeseries.UncertainMovingAverage(values, sigmas, w, mode)
}

// Euclidean returns the L2 distance between equal-length series.
func Euclidean(x, y []float64) (float64, error) { return distance.Euclidean(x, y) }

// ---- Uncertainty models and perturbation ----

// Dist is a continuous probability distribution (error model).
type Dist = stats.Dist

// NormalDist returns N(mu, sigma^2).
func NormalDist(mu, sigma float64) Dist { return stats.NewNormal(mu, sigma) }

// SampleSeries is the repeated-observation uncertain model (MUNICH input).
type SampleSeries = uncertain.SampleSeries

// ErrorFamily enumerates the zero-mean error families of the evaluation.
type ErrorFamily = uncertain.ErrorFamily

// Error family values.
const (
	Normal  = uncertain.Normal
	Uniform = uncertain.Uniform
)

// Perturber turns exact series into uncertain ones.
type Perturber = uncertain.Perturber

// MixedSigmaSpec describes the paper's mixed-error perturbations.
type MixedSigmaSpec = uncertain.MixedSigmaSpec

// NewConstantPerturber perturbs every timestamp with the same error.
func NewConstantPerturber(family ErrorFamily, sigma float64, n int, seed int64) (*Perturber, error) {
	return uncertain.NewConstantPerturber(family, sigma, n, seed)
}

// NewMixedPerturber perturbs with the mixed-sigma (and optionally
// mixed-family) error of Figures 8-10 and 15-17.
func NewMixedPerturber(spec MixedSigmaSpec, n int, seed int64) (*Perturber, error) {
	return uncertain.NewMixedPerturber(spec, n, seed)
}

// ---- Techniques ----

// DUSTOptions configures a DUST evaluator.
type DUSTOptions = dust.Options

// DUST is the lookup-table Bayesian dissimilarity evaluator.
type DUST = dust.Dust

// NewDUST returns a DUST evaluator.
func NewDUST(opts DUSTOptions) *DUST { return dust.New(opts) }

// MUNICHProbability returns Pr(distance <= eps) under the MUNICH
// repeated-observation semantics.
func MUNICHProbability(x, y SampleSeries, eps float64, opts MUNICHOptions) (float64, error) {
	return munich.Probability(x, y, eps, opts)
}

// MUNICHOptions sets the bin count of MUNICH's convolution estimator.
type MUNICHOptions = munich.Options

// ---- Evaluation framework ----

// Workload bundles exact data, perturbed views and ground truth.
type Workload = core.Workload

// WorkloadConfig parameterises workload construction.
type WorkloadConfig = core.WorkloadConfig

// Technique names one of the paper's techniques on the common matching
// task: an engine measure (MeasureEuclidean ... MeasurePROUD), the
// probability threshold Tau of PROUD and MUNICH, and — for the Section 5
// parameter studies — a UMA/UEMA filter geometry (W, Lambda, Mode; zero =
// the paper's w = 2, lambda = 1, normalised weights).
type Technique = experiments.Technique

// Metrics holds precision / recall / F1 for one query.
type Metrics = experiments.Metrics

// NewWorkload builds a workload from an exact dataset and a perturber.
func NewWorkload(ds Dataset, p *Perturber, cfg WorkloadConfig) (*Workload, error) {
	return core.NewWorkload(ds, p, cfg)
}

// Evaluate answers the Section 4.1.2 matching task with the technique for
// the workload's queries (nil = all) — each answer one QueryEngine.Run over
// the workload's corpus, thresholds calibrated through the ground truth's
// K-th neighbour — and returns per-query metrics.
func Evaluate(w *Workload, t Technique, queries []int) ([]Metrics, error) {
	return experiments.Evaluate(w, t, queries)
}

// CalibrateTau finds the best probability threshold for a probabilistic
// technique (PROUD or MUNICH) over a tau grid (nil = the default grid),
// reproducing the paper's "optimal tau" procedure; it returns that tau and
// its mean F1.
func CalibrateTau(w *Workload, t Technique, queries []int, grid []float64) (float64, float64, error) {
	return experiments.CalibrateTau(w, t, queries, grid)
}

// AverageMetrics averages per-query metrics.
func AverageMetrics(ms []Metrics) Metrics { return experiments.AverageMetrics(ms) }

// ---- Corpus (mutable data layer) ----

// Corpus is the mutable data layer: a long-lived collection of uncertain
// series supporting Insert/Delete while queries run. Per-series index
// artifacts (LB_Keogh envelopes, UMA/UEMA filtered vectors, the tier-0
// filter columns and observation energies, MUNICH bounding intervals,
// shared DUST phi tables) are maintained incrementally on insert, and the
// corpus publishes immutable snapshots (copy-on-write, epoch-versioned) so
// concurrent readers are never blocked by writers.
type Corpus = corpus.Corpus

// CorpusConfig fixes the artifact geometry of a corpus (series length,
// envelope band, filter window, segment count, error defaults).
type CorpusConfig = corpus.Config

// CorpusSeries is the unit of ingestion: observations plus optional error
// model and repeated-observation samples.
type CorpusSeries = corpus.Series

// CorpusSnapshot is one immutable, epoch-versioned version of a corpus;
// everything reachable from it is frozen at publication.
type CorpusSnapshot = corpus.Snapshot

// NewCorpus returns an empty corpus with the given artifact geometry.
func NewCorpus(cfg CorpusConfig) *Corpus { return corpus.New(cfg) }

// ---- Query engine ----

// QueryEngine is the pruned top-k / range similarity engine over one corpus
// snapshot. It has one query entry point — Run (RunStream for incremental
// delivery) executes a declarative QueryRequest — and one path behind it for
// every measure and kind: candidate source (a sharded sweep of every
// snapshot position, in position order or, for banded DTW top-k, in the
// order of its sketch-row bound) → tier 0 / bounds (the coarse filter
// columns for Euclidean, UMA, UEMA and PROUD, sketch rows for DTW) → refine
// (the measure's own early-abandoning kernel: LB_Keogh and a banded DP for
// DTW, shared phi tables for DUST, MUNICH's bounding-interval prune, moment
// bracket and sample-pair bound before any combination counting,
// PROUD's sound prefix bounds) → collect (matches by position, or one
// query-wide top-k collector whose k-th best tightens the cut every worker
// prunes against). Answers are exact — identical to the naive full scan —
// for every worker count. Distance is the unpruned reference lookup.
type QueryEngine = engine.Engine

// QueryEngineOptions configures a QueryEngine: the measure, the executor
// (Workers, ShardSize), the reference and scan arms (NoPrune, NoIndex) and
// the bin count of MUNICH's convolution. It carries no
// geometry: the DTW band, the UMA/UEMA window, decay and weight mode, the
// DUST tables and the MUNICH segment count are the CorpusConfig of the
// corpus the snapshot came from (WorkloadConfig.Band for a Workload's), and
// an engine wanting another window is built over another corpus.
type QueryEngineOptions = engine.Options

// QueryMeasure selects the similarity measure a QueryEngine serves.
type QueryMeasure = engine.Measure

// Query engine measures.
const (
	MeasureEuclidean = engine.MeasureEuclidean
	MeasureUMA       = engine.MeasureUMA
	MeasureUEMA      = engine.MeasureUEMA
	MeasureDUST      = engine.MeasureDUST
	MeasurePROUD     = engine.MeasurePROUD
)

// NewQueryEngineFromSnapshot builds a pruned query engine over a corpus
// snapshot. The engine reads the snapshot's precomputed per-series
// artifacts in place, under the corpus geometry, so construction costs the
// same few allocations whatever the corpus size.
func NewQueryEngineFromSnapshot(snap *CorpusSnapshot, opts QueryEngineOptions) (*QueryEngine, error) {
	return engine.NewFromSnapshot(snap, opts)
}

// ---- Declarative query API ----

// QueryRequest is one declarative query against a QueryEngine: the kind
// (topk, range, probtopk, probrange) and its parameters, the target (a
// resident snapshot position via Index, or an ad-hoc series via AdHoc), a
// per-request worker budget and an Offset/Limit pagination window. Build
// one and hand it to QueryEngine.Run:
//
//	qi := 3
//	res, err := e.Run(ctx, uncertts.QueryRequest{
//		Measure: uncertts.MeasureUEMA,
//		Kind:    uncertts.QueryTopK,
//		Index:   &qi,
//		K:       5,
//	})
//
// Run validates the request up front with field-specific errors (wrapping
// ErrBadRequest) and honours ctx throughout: cancellation or an expired
// deadline stops the scan promptly — the executor polls the context at
// every work-item boundary and the long kernels (DTW rows, MUNICH refines,
// PROUD prefix accumulation) poll it mid-computation.
type QueryRequest = engine.Request

// Query kinds.
const (
	QueryTopK  = engine.KindTopK
	QueryRange = engine.KindRange
)

// QueryStreamItem is one incremental result delivered by
// QueryEngine.RunStream: candidate position plus distance (topk/range) or
// probability (probtopk).
type QueryStreamItem = engine.Item

// Typed sentinel errors of the query surface. A validation or cancellation
// failure out of QueryEngine.Run wraps one of these, so callers classify
// with errors.Is:
//
//	res, err := e.Run(ctx, req)
//	switch {
//	case errors.Is(err, uncertts.ErrQueryCancelled): // ctx cancelled or deadline hit
//	case errors.Is(err, uncertts.ErrBadRequest):     // invalid field, message names it
//	}
var (
	// ErrBadRequest marks a structurally invalid request (missing target,
	// k < 1, tau outside the measure's domain, ...).
	ErrBadRequest = qerr.ErrBadRequest
	// ErrQueryCancelled marks a query stopped by its context; errors
	// carrying it also match context.Canceled / context.DeadlineExceeded
	// under errors.Is.
	ErrQueryCancelled = qerr.ErrCancelled
)

// ---- Datasets ----

// DatasetOptions controls synthetic UCR generation.
type DatasetOptions = ucr.Options

// GenerateDataset produces one of the 17 synthetic UCR stand-ins by name.
func GenerateDataset(name string, opts DatasetOptions) (Dataset, error) {
	return ucr.Generate(name, opts)
}
