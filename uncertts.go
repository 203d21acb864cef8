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
// Beyond the batch evaluation, the package serves queries from a mutable
// corpus with snapshot isolation (see NewCorpus, NewQueryEngineFromSnapshot,
// NewQueryServer). Queries are declarative: build one QueryRequest and
// execute it with QueryEngine.Run under a context whose cancellation and
// deadline the whole stack honours:
//
//	c := uncertts.NewCorpus(uncertts.CorpusConfig{ReportedSigma: 0.6})
//	id, _ := c.Insert(uncertts.CorpusSeries{Values: obs})
//	e, _ := uncertts.NewQueryEngineFromSnapshot(c.Snapshot(), uncertts.QueryEngineOptions{})
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, _ := e.Run(ctx, uncertts.QueryRequest{
//		Kind:  uncertts.QueryTopK,
//		AdHoc: &uncertts.AdHocQuery{Values: someVector},
//		K:     5,
//	})
//	_, _ = id, res.Neighbors
//
// cmd/uncertserve exposes the same stack over HTTP/JSON, including a
// streaming NDJSON endpoint (/query/stream) and per-request timeouts.
//
// The corpus can be made durable with OpenCorpus: mutations are written
// ahead to a checksummed log, checkpoints bound recovery time, and a
// restart (or crash) recovers the exact acknowledged state — same stable
// IDs, same epochs, bit-identical query results.
//
// The cmd/uncertbench binary regenerates any figure:
//
//	uncertbench -exp fig5 -scale medium
//
// README.md holds the system inventory (Architecture, Package map).
package uncertts

import (
	"math/rand"

	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/dust"
	"uncertts/internal/engine"
	"uncertts/internal/experiments"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
	"uncertts/internal/query"
	"uncertts/internal/server"
	"uncertts/internal/stats"
	"uncertts/internal/store"
	"uncertts/internal/stream"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// ---- Time series substrate ----

// Series is a real-valued time series with constant sampling rate.
type Series = timeseries.Series

// Dataset is a named collection of series.
type Dataset = timeseries.Dataset

// NewSeries builds a Series over a copy of values.
func NewSeries(values []float64) Series { return timeseries.New(values) }

// WeightMode selects the Eq. 17/18 weight normalisation of the UMA/UEMA
// filters.
type WeightMode = timeseries.WeightMode

// Weight mode values.
const (
	WeightModeNormalized = timeseries.WeightModeNormalized
	WeightModeStrict     = timeseries.WeightModeStrict
)

// MovingAverage applies the paper's Eq. 15 filter.
func MovingAverage(values []float64, w int) []float64 {
	return timeseries.MovingAverage(values, w)
}

// ExponentialMovingAverage applies the paper's Eq. 16 filter.
func ExponentialMovingAverage(values []float64, w int, lambda float64) []float64 {
	return timeseries.ExponentialMovingAverage(values, w, lambda)
}

// UMA applies the Uncertain Moving Average filter (Eq. 17).
func UMA(values, sigmas []float64, w int, mode WeightMode) ([]float64, error) {
	return timeseries.UncertainMovingAverage(values, sigmas, w, mode)
}

// UEMA applies the Uncertain Exponential Moving Average filter (Eq. 18).
func UEMA(values, sigmas []float64, w int, lambda float64, mode WeightMode) ([]float64, error) {
	return timeseries.UncertainExponentialMovingAverage(values, sigmas, w, lambda, mode)
}

// ---- Distances ----

// Euclidean returns the L2 distance between equal-length series.
func Euclidean(x, y []float64) (float64, error) { return distance.Euclidean(x, y) }

// DTW returns the Dynamic Time Warping distance.
func DTW(x, y []float64) (float64, error) { return distance.DTW(x, y) }

// DTWBand returns DTW constrained to a Sakoe-Chiba band.
func DTWBand(x, y []float64, band int) (float64, error) { return distance.DTWBand(x, y, band) }

// ---- Probability distributions ----

// Dist is a continuous probability distribution (error model).
type Dist = stats.Dist

// NormalDist returns N(mu, sigma^2).
func NormalDist(mu, sigma float64) Dist { return stats.NewNormal(mu, sigma) }

// UniformErrorDist returns the zero-mean uniform error with stddev sigma.
func UniformErrorDist(sigma float64) Dist { return stats.NewUniformByStdDev(sigma) }

// ExponentialErrorDist returns the zero-mean exponential error with stddev
// sigma.
func ExponentialErrorDist(sigma float64) Dist { return stats.NewExponentialByStdDev(sigma) }

// ---- Uncertainty models and perturbation ----

// PDFSeries is the observation-plus-error-distribution uncertain model
// (PROUD / DUST input).
type PDFSeries = uncertain.PDFSeries

// SampleSeries is the repeated-observation uncertain model (MUNICH input).
type SampleSeries = uncertain.SampleSeries

// ErrorFamily enumerates the zero-mean error families of the evaluation.
type ErrorFamily = uncertain.ErrorFamily

// Error family values.
const (
	Normal      = uncertain.Normal
	Uniform     = uncertain.Uniform
	Exponential = uncertain.Exponential
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

// NewAR1Perturber perturbs with AR(1)-correlated errors (coefficient rho),
// probing what happens when the independence assumption every technique
// shares is violated.
func NewAR1Perturber(family ErrorFamily, sigma, rho float64, n int, seed int64) (*Perturber, error) {
	return uncertain.NewAR1Perturber(family, sigma, rho, n, seed)
}

// NewEmpiricalDist fits a Gaussian-kernel density estimate to samples
// (bandwidth 0 = Silverman's rule).
func NewEmpiricalDist(samples []float64, bandwidth float64) (*stats.Empirical, error) {
	return stats.NewEmpirical(samples, bandwidth)
}

// ---- Techniques ----

// DUSTOptions configures a DUST evaluator.
type DUSTOptions = dust.Options

// DUST is the lookup-table Bayesian dissimilarity evaluator.
type DUST = dust.Dust

// NewDUST returns a DUST evaluator.
func NewDUST(opts DUSTOptions) *DUST { return dust.New(opts) }

// PROUDDistance returns PROUD's normal approximation of the squared
// distance between two observation vectors.
func PROUDDistance(qObs, cObs []float64, qSigma, cSigma float64) (proud.DistanceDist, error) {
	return proud.Distance(qObs, cObs, qSigma, cSigma)
}

// MUNICHProbability returns Pr(distance <= eps) under the MUNICH
// repeated-observation semantics.
func MUNICHProbability(x, y SampleSeries, eps float64, opts munich.Options) (float64, error) {
	return munich.Probability(x, y, eps, opts)
}

// MUNICHOptions configures MUNICH probability estimation.
type MUNICHOptions = munich.Options

// ---- Evaluation framework ----

// Workload bundles exact data, perturbed views and ground truth.
type Workload = core.Workload

// WorkloadConfig parameterises workload construction.
type WorkloadConfig = core.WorkloadConfig

// Technique names one of the paper's techniques on the common matching
// task: an engine measure (MeasureEuclidean ... MeasureMUNICH), the
// probability threshold Tau of PROUD and MUNICH, and — for the Section 5
// parameter studies — a UMA/UEMA filter geometry (W, Lambda, Mode; zero =
// the paper's w = 2, lambda = 1, normalised weights).
type Technique = experiments.Technique

// Metrics holds precision / recall / F1 for one query.
type Metrics = query.Metrics

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

// ---- Corpus (mutable data layer) ----

// Corpus is the mutable data layer: a long-lived collection of uncertain
// series supporting Insert/Delete while queries run. Per-series index
// artifacts (LB_Keogh envelopes, UMA/UEMA filtered vectors, PROUD suffix
// energies, MUNICH segment envelopes, shared DUST phi tables) are
// maintained incrementally on insert, and the corpus publishes immutable
// snapshots (copy-on-write, epoch-versioned) so concurrent readers are
// never blocked by writers.
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

// CorpusEntry is one resident series with its derived artifacts.
type CorpusEntry = corpus.Entry

// NewCorpus returns an empty corpus with the given artifact geometry.
func NewCorpus(cfg CorpusConfig) *Corpus { return corpus.New(cfg) }

// ---- Durable corpus ----

// Store is the durability engine behind a corpus: an append-only,
// CRC-checksummed write-ahead log of mutations, periodic checkpoint
// snapshots, and background WAL compaction. Every mutation of the
// corpus returned by Store.Corpus is logged with write-ahead ordering —
// the log accepts the record before the mutation becomes visible to
// readers, so an acknowledged mutation is never silently lost (under
// SyncAlways not even by an OS crash). Store.Checkpoint serializes the
// full corpus state and deletes the log segments it covers;
// Store.Status feeds health endpoints; Store.Close flushes and stops.
type Store = store.Store

// StoreOptions configures OpenCorpus: fsync policy (SyncAlways /
// SyncInterval), WAL segment size, automatic checkpoint threshold, and
// read-only recovery.
type StoreOptions = store.Options

// StoreStatus is a point-in-time report of a store's health: current
// epoch, WAL bytes a recovery would replay, last checkpoint epoch.
type StoreStatus = store.Status

// StoreSyncPolicy selects when WAL appends are forced to disk.
type StoreSyncPolicy = store.SyncPolicy

// Store sync policies: SyncAlways fsyncs before acknowledging each
// mutation (durability), SyncInterval batches fsyncs on a timer
// (throughput; a process crash still loses nothing, an OS crash can lose
// up to one interval).
const (
	SyncAlways   = store.SyncAlways
	SyncInterval = store.SyncInterval
)

// Durability sentinels: mutations against a closed store fail with
// ErrStoreClosed, mutations against a read-only recovery with
// ErrStoreReadOnly (both match via errors.Is).
var (
	ErrStoreClosed   = store.ErrClosed
	ErrStoreReadOnly = store.ErrReadOnly
)

// OpenCorpus opens (or creates) a durable corpus in dir and recovers its
// exact last acknowledged state: the newest valid checkpoint is loaded,
// the write-ahead log past its epoch is replayed through the corpus'
// own mutation path (same stable IDs, same epochs, bit-identical query
// results), and a torn tail record left by a crash is truncated. cfg is
// consulted only for a brand-new store; afterwards the persisted
// configuration wins.
//
//	st, err := uncertts.OpenCorpus("/var/lib/uncertserve", uncertts.CorpusConfig{ReportedSigma: 0.6}, uncertts.StoreOptions{Sync: uncertts.SyncAlways})
//	if err != nil { ... }
//	defer st.Close()
//	c := st.Corpus()                  // durable: every Insert/Delete is logged before it is visible
//	id, err := c.Insert(uncertts.CorpusSeries{Values: obs})
//	_ = st.Checkpoint()               // bound recovery time, compact the WAL
//	_, _ = id, err
//
// cmd/uncertserve serves a durable corpus over HTTP (-data), cmd/uncertgen
// seeds one from a generated workload (-out), and cmd/uncertquery queries
// one directly (-data).
func OpenCorpus(dir string, cfg CorpusConfig, opts StoreOptions) (*Store, error) {
	return store.Open(dir, cfg, opts)
}

// ParseStoreSyncPolicy resolves a case-insensitive fsync policy name
// ("always", "interval").
func ParseStoreSyncPolicy(name string) (StoreSyncPolicy, error) {
	return store.ParseSyncPolicy(name)
}

// ---- Query engine ----

// QueryEngine is the pruned top-k / range similarity engine over one corpus
// snapshot. It has one query entry point — Run (RunStream for incremental
// delivery) executes a declarative QueryRequest — and one path behind it for
// every measure and kind: candidate source (a sharded sweep of the snapshot,
// or the sketch-tree walk for banded DTW) → tier 0 / bounds (the coarse
// filter columns for Euclidean, UMA, UEMA and PROUD, sketch rows for DTW) →
// refine (the measure's own early-abandoning kernel: LB_Keogh and a banded
// DP for DTW, shared phi tables for DUST, MUNICH's envelope,
// bounding-interval and sample-pair bounds before any combination counting,
// PROUD's sound prefix bounds) → collect (matches by position, or one
// query-wide top-k collector whose k-th best tightens the cut every worker
// prunes against). Answers are exact — identical to the naive full scan —
// for every worker count. Distance is the unpruned reference lookup.
type QueryEngine = engine.Engine

// QueryEngineOptions configures a QueryEngine: the measure, the executor
// (Workers, ShardSize), the reference and scan arms (NoPrune, NoIndex,
// IndexThreshold) and MUNICH's probability estimator. It carries no
// geometry: the DTW band, the UMA/UEMA window, decay and weight mode, the
// DUST tables and the MUNICH segment count are the CorpusConfig of the
// corpus the snapshot came from (WorkloadConfig.Band for a Workload's), and
// an engine wanting another window is built over another corpus.
type QueryEngineOptions = engine.Options

// QueryEngineStats counts the engine's work (candidates examined, full
// computations, early abandons, envelope prunes).
type QueryEngineStats = engine.Stats

// QueryMeasure selects the similarity measure a QueryEngine serves.
type QueryMeasure = engine.Measure

// Query engine measures.
const (
	MeasureEuclidean = engine.MeasureEuclidean
	MeasureUMA       = engine.MeasureUMA
	MeasureUEMA      = engine.MeasureUEMA
	MeasureDTW       = engine.MeasureDTW
	MeasureDUST      = engine.MeasureDUST
	MeasurePROUD     = engine.MeasurePROUD
	MeasureMUNICH    = engine.MeasureMUNICH
)

// Neighbor pairs a series ID with its distance from a query.
type Neighbor = query.Neighbor

// ProbMatch pairs a candidate index with its match probability
// Pr(distance <= eps); the result unit of QueryProbTopK requests.
type ProbMatch = engine.ProbMatch

// NewQueryEngine builds a pruned query engine over the workload's corpus
// snapshot.
func NewQueryEngine(w *Workload, opts QueryEngineOptions) (*QueryEngine, error) {
	return engine.NewFromSnapshot(w.Snapshot(), opts)
}

// NewQueryEngineFromSnapshot builds a pruned query engine over a corpus
// snapshot. The engine reads the snapshot's precomputed per-series
// artifacts in place, under the corpus geometry, so construction costs the
// same few allocations whatever the corpus size.
func NewQueryEngineFromSnapshot(snap *CorpusSnapshot, opts QueryEngineOptions) (*QueryEngine, error) {
	return engine.NewFromSnapshot(snap, opts)
}

// AdHocQuery is an arbitrary uncertain series — not necessarily resident
// in any corpus — posed as a query: observations, optional error model,
// optional repeated-observation samples (required for MUNICH).
type AdHocQuery = engine.Query

// ---- Declarative query API ----

// QueryRequest is one declarative query against a QueryEngine: the kind
// (topk, range, probtopk, probrange) and its parameters, the target (a
// resident snapshot position via Index, or an AdHocQuery via AdHoc), a
// per-request worker budget and an Offset/Limit pagination window. Build
// one and hand it to QueryEngine.Run:
//
//	qi := 3
//	res, err := e.Run(ctx, uncertts.QueryRequest{
//		Measure: uncertts.MeasureDTW,
//		Kind:    uncertts.QueryTopK,
//		Index:   &qi,
//		K:       5,
//	})
//
// Run validates the request up front with field-specific errors (wrapping
// the Err* sentinels below) and honours ctx throughout: cancellation or an
// expired deadline stops the scan promptly — the executor polls the
// context at every work-item boundary and the long kernels (DTW rows,
// MUNICH refines, PROUD prefix accumulation) poll it mid-computation.
type QueryRequest = engine.Request

// QueryResult is the answer to one QueryRequest: exactly one of Neighbors
// (topk), IDs (range/probrange) or Matches (probtopk) is populated, plus
// Total (the answer size before the Offset/Limit window).
type QueryResult = engine.Result

// QueryKind is the query family of a QueryRequest.
type QueryKind = engine.Kind

// Query kinds.
const (
	QueryTopK      = engine.KindTopK
	QueryRange     = engine.KindRange
	QueryProbTopK  = engine.KindProbTopK
	QueryProbRange = engine.KindProbRange
)

// QueryStreamItem is one incremental result delivered by
// QueryEngine.RunStream: candidate position plus distance (topk/range) or
// probability (probtopk).
type QueryStreamItem = engine.Item

// ParseQueryKind resolves a case-insensitive kind name ("topk", "range",
// "probtopk", "probrange").
func ParseQueryKind(name string) (QueryKind, error) { return engine.ParseKind(name) }

// ParseQueryMeasure resolves a case-insensitive measure name ("euclidean",
// "uma", "uema", "dtw", "dust", "proud", "munich").
func ParseQueryMeasure(name string) (QueryMeasure, error) { return engine.ParseMeasure(name) }

// Typed sentinel errors of the query surface. Every validation or
// cancellation failure out of QueryEngine.Run (and the HTTP server built
// on it) wraps exactly one of these, so callers classify with errors.Is:
//
//	res, err := e.Run(ctx, req)
//	switch {
//	case errors.Is(err, uncertts.ErrQueryCancelled): // ctx cancelled or deadline hit
//	case errors.Is(err, uncertts.ErrBadRequest):     // invalid field, message names it
//	}
var (
	// ErrUnknownMeasure marks a measure outside the seven the engine
	// serves.
	ErrUnknownMeasure = qerr.ErrUnknownMeasure
	// ErrBadRequest marks a structurally invalid request (missing target,
	// k < 1, tau outside the measure's domain, ...).
	ErrBadRequest = qerr.ErrBadRequest
	// ErrLengthMismatch marks an ad-hoc query whose geometry does not
	// match the corpus.
	ErrLengthMismatch = qerr.ErrLengthMismatch
	// ErrQueryCancelled marks a query stopped by its context; errors
	// carrying it also match context.Canceled / context.DeadlineExceeded
	// under errors.Is.
	ErrQueryCancelled = qerr.ErrCancelled
)

// ---- HTTP query server ----

// QueryServer serves similarity queries over a corpus via HTTP/JSON:
// POST /query (topk, range, probtopk, probrange across all measures, by
// resident series ID or ad-hoc series), POST /query/stream (the same
// queries with incremental NDJSON results), POST /series (ingest/delete)
// and GET /stats. Every query executes under the HTTP request's context —
// a client hang-up cancels the query and drains the executor — with an
// optional per-request timeout_ms. Concurrent requests execute on the
// engine's work-stealing executor with per-request worker budgets;
// in-flight queries keep the corpus snapshot they started on.
type QueryServer = server.Server

// QueryServerOptions configures a QueryServer (per-request worker budgets,
// default query timeout, MUNICH estimator).
type QueryServerOptions = server.Options

// NewQueryServer returns a query server over the corpus; mount Handler()
// on any http server.
func NewQueryServer(c *Corpus, opts QueryServerOptions) *QueryServer {
	return server.New(c, opts)
}

// CalibrateTau finds the best probability threshold for a probabilistic
// technique (MeasurePROUD or MeasureMUNICH) over a tau grid (nil = the
// default grid), reproducing the paper's "optimal tau" procedure; it returns
// that tau and its mean F1.
func CalibrateTau(w *Workload, t Technique, queries []int, grid []float64) (float64, float64, error) {
	return experiments.CalibrateTau(w, t, queries, grid)
}

// AverageMetrics averages per-query metrics.
func AverageMetrics(ms []Metrics) Metrics { return query.AverageMetrics(ms) }

// ---- Datasets ----

// DatasetOptions controls synthetic UCR generation.
type DatasetOptions = ucr.Options

// GenerateDataset produces one of the 17 synthetic UCR stand-ins by name.
func GenerateDataset(name string, opts DatasetOptions) (Dataset, error) {
	return ucr.Generate(name, opts)
}

// GenerateAllDatasets produces all 17 stand-ins.
func GenerateAllDatasets(opts DatasetOptions) []Dataset { return ucr.GenerateAll(opts) }

// DatasetNames lists the 17 dataset names in the paper's order.
func DatasetNames() []string { return ucr.Names() }

// ---- Experiments ----

// ExperimentConfig parameterises a figure regeneration.
type ExperimentConfig = experiments.Config

// ExperimentTable is a printable experiment result.
type ExperimentTable = experiments.Table

// ExperimentScale selects workload sizes.
type ExperimentScale = experiments.Scale

// Experiment scales.
const (
	ScaleSmall  = experiments.ScaleSmall
	ScaleMedium = experiments.ScaleMedium
	ScaleFull   = experiments.ScaleFull
)

// RunExperiment executes a named figure runner ("fig4" ... "fig17",
// "chisquare").
func RunExperiment(name string, cfg ExperimentConfig) ([]ExperimentTable, error) {
	r, ok := experiments.Registry()[name]
	if !ok {
		return nil, &UnknownExperimentError{Name: name}
	}
	return r(cfg)
}

// ExperimentNames lists the registered experiments.
func ExperimentNames() []string { return experiments.Names() }

// UnknownExperimentError reports a bad experiment name.
type UnknownExperimentError struct{ Name string }

func (e *UnknownExperimentError) Error() string {
	return "uncertts: unknown experiment " + e.Name
}

// ---- Streaming ----

// StreamMonitor continuously matches registered patterns against uncertain
// data streams using PROUD's probabilistic predicate with sound early
// termination.
type StreamMonitor = stream.Monitor

// StreamPattern is a reference pattern registered with a StreamMonitor.
type StreamPattern = stream.Pattern

// StreamEvent is a per-epoch match/no-match decision.
type StreamEvent = stream.Event

// NewStreamMonitor returns a monitor with the given reported error levels
// for the patterns and the streams.
func NewStreamMonitor(querySigma, streamSigma float64) (*StreamMonitor, error) {
	return stream.NewMonitor(querySigma, streamSigma)
}

// NewSeededRand returns a deterministic random source (reproducible
// examples and workloads).
func NewSeededRand(seed int64) *rand.Rand { return stats.NewRand(seed) }
