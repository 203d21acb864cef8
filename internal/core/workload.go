// Package core holds the ground truth of the reproduction's common task —
// the time-series similarity matching of Section 4.1.2, against a truth
// derived from the exact (unperturbed) data.
//
// The methodology, exactly as in the paper:
//
//  1. Take an exact dataset as ground truth; perturb it to obtain the
//     uncertain dataset every technique sees.
//  2. For each query q, find its K-th nearest neighbour c in the *exact*
//     data; eps_eucl(q) is the Euclidean distance q-to-c, and the ground
//     truth answer set is every exact series within eps_eucl(q).
//  3. For a non-Euclidean measure M, the equivalent threshold eps_M(q) is
//     the M-distance between q and c ("we define eps_eucl as the Euclidean
//     distance on the observations between q and c and eps_dust as the DUST
//     distance between q and c").
//  4. Each technique answers the range query on the *uncertain* data; the
//     answer is scored against the ground truth with precision/recall/F1.
//
// A Workload is steps 1 and 2: the perturbed corpus, the truth sets, the
// calibration neighbours and eps_eucl, built with the package's two exact
// scans — NearestNeighbors (the K-th neighbour that calibrates eps) and
// RangeQuery (the truth set within it). Steps 3 and 4 are one function over
// the query engine, internal/experiments' Evaluate.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/uncertain"
)

// WorkloadConfig parameterises workload construction.
type WorkloadConfig struct {
	// K is the ground-truth neighbourhood size (the paper uses 10).
	K int
	// SamplesPerTS, when positive, also materialises the repeated-
	// observation model for MUNICH.
	SamplesPerTS int
	// ReportedErrors optionally overrides the per-timestamp error
	// distributions the techniques are told about (Figure 10's wrong-sigma
	// scenario). Nil means the techniques are told the truth.
	ReportedErrors []stats.Dist
	// ReportedSigma optionally overrides the single constant sigma PROUD
	// and the UMA/UEMA filters receive. Zero derives it from the reported
	// errors (root mean variance).
	ReportedSigma float64
	// Band is the Sakoe-Chiba half-width of the workload's corpus — the
	// corpus.Config.Band DTW engines over Snapshot() run under (0 =
	// length/10, negative = unconstrained).
	Band int
}

// Workload bundles an exact dataset, its perturbed views, the reported
// uncertainty metadata, and the pre-computed ground truth.
//
// Since the corpus refactor a workload is a thin view: the perturbed data
// and every derived artifact live in an internal/corpus Corpus, and the
// public PDF/Samples/Sigmas fields alias one immutable snapshot of it
// (Snapshot()). The workload adds what only the evaluation methodology
// needs — the exact series, the ground-truth sets and the calibrated
// thresholds. Engine construction goes through the snapshot and reuses the
// corpus' precomputed artifacts.
type Workload struct {
	// Exact holds the unperturbed ground-truth series.
	Exact []timeseries.Series
	// PDF holds one perturbed observation per timestamp per series, with
	// the *reported* error distributions attached (what techniques see).
	PDF []uncertain.PDFSeries
	// Samples holds the repeated-observation view for MUNICH (nil unless
	// requested).
	Samples []uncertain.SampleSeries
	// ReportedSigma is the constant error stddev PROUD/UMA/UEMA receive.
	ReportedSigma float64
	// Sigmas caches the per-timestamp reported error stddevs.
	Sigmas []float64
	// K is the ground-truth neighbourhood size.
	K int

	truth   [][]int   // per-query ground-truth ID sets
	calNN   []int     // per-query calibration neighbour (the K-th NN)
	epsEucl []float64 // per-query Euclidean threshold

	corpus *corpus.Corpus
	snap   *corpus.Snapshot
}

// NewWorkload perturbs the dataset and precomputes ground truth. The
// perturber must have been built for (at least) the dataset's series length.
func NewWorkload(exact timeseries.Dataset, p *uncertain.Perturber, cfg WorkloadConfig) (*Workload, error) {
	if len(exact.Series) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.K >= len(exact.Series) {
		return nil, fmt.Errorf("core: K=%d requires more than %d series", cfg.K, len(exact.Series))
	}
	n := exact.Series[0].Len()
	for _, s := range exact.Series {
		if s.Len() != n {
			return nil, fmt.Errorf("core: series %d has length %d, want %d (workloads require aligned series)", s.ID, s.Len(), n)
		}
	}

	w := &Workload{
		Exact:         exact.Series,
		ReportedSigma: cfg.ReportedSigma,
		K:             cfg.K,
	}

	reported := cfg.ReportedErrors
	if reported == nil {
		reported = p.ReportedDists(n)
	}
	if len(reported) < n {
		return nil, fmt.Errorf("core: %d reported error distributions for length-%d series", len(reported), n)
	}
	w.Sigmas = make([]float64, n)
	for i := 0; i < n; i++ {
		w.Sigmas[i] = math.Sqrt(reported[i].Variance())
	}
	if w.ReportedSigma <= 0 {
		var acc float64
		for _, d := range reported {
			acc += d.Variance()
		}
		w.ReportedSigma = math.Sqrt(acc / float64(n))
	}

	// Perturb: observations from the true distributions, reported metadata
	// attached. The perturbed views are owned by a corpus; the workload's
	// PDF/Samples fields alias one snapshot of it.
	w.corpus = corpus.New(corpus.Config{
		Length:        n,
		ReportedSigma: w.ReportedSigma,
		Sigmas:        w.Sigmas,
		Errors:        reported[:n],
		Band:          cfg.Band,
	})
	batch := make([]corpus.Series, len(exact.Series))
	for i, s := range exact.Series {
		ps := p.PerturbPDF(s)
		batch[i] = corpus.Series{Values: ps.Observations, Errors: reported[:n], Label: s.Label}
		if cfg.SamplesPerTS > 0 {
			ss, err := p.PerturbSamples(s, cfg.SamplesPerTS)
			if err != nil {
				return nil, err
			}
			batch[i].Samples = ss.Samples
		}
	}
	if _, err := w.corpus.InsertBatch(batch); err != nil {
		return nil, fmt.Errorf("core: populating corpus: %w", err)
	}
	w.snap = w.corpus.Snapshot()
	w.PDF = w.snap.PDFSeries()
	if cfg.SamplesPerTS > 0 {
		w.Samples = w.snap.SampleSeries()
	}

	// Ground truth per query. The truth set lives in the exact space: the
	// K nearest exact neighbours (every series within the K-th NN
	// distance). The *technique-facing* threshold eps_eucl, however, is the
	// Euclidean distance between the perturbed observations of q and that
	// K-th neighbour — "we define eps_eucl as the Euclidean distance on the
	// observations between q and c" (Section 4.1.2). Calibrating on the
	// observations is essential: perturbation inflates every pairwise
	// distance by roughly sqrt(2 n sigma^2), and a threshold calibrated on
	// exact distances would return empty answers for every technique.
	w.truth = make([][]int, len(exact.Series))
	w.calNN = make([]int, len(exact.Series))
	w.epsEucl = make([]float64, len(exact.Series))
	for qi, q := range exact.Series {
		nn, kth, err := NearestNeighbors(q, exact.Series, cfg.K)
		if err != nil {
			return nil, fmt.Errorf("core: ground truth for query %d: %w", q.ID, err)
		}
		if len(nn) < cfg.K {
			return nil, fmt.Errorf("core: query %d has only %d neighbours, need %d", q.ID, len(nn), cfg.K)
		}
		w.calNN[qi] = nn[cfg.K-1]
		// A hair of slack keeps the K-th neighbour itself inside the truth
		// set despite sqrt/square rounding at the boundary.
		slack := kth * (1 + 1e-9)
		truth, err := RangeQuery(q, exact.Series, slack)
		if err != nil {
			return nil, err
		}
		w.truth[qi] = truth

		calIdx := w.CalibrationNeighbor(qi)
		obsDist, err := distance.Euclidean(w.PDF[qi].Observations, w.PDF[calIdx].Observations)
		if err != nil {
			return nil, fmt.Errorf("core: observation threshold for query %d: %w", q.ID, err)
		}
		w.epsEucl[qi] = obsDist
	}
	return w, nil
}

// NearestNeighbors returns the IDs of the k series of the collection nearest
// to q under Euclidean distance, excluding q's own ID, nearest first (ties
// broken by ID), and the distance of the last of them.
func NearestNeighbors(q timeseries.Series, collection []timeseries.Series, k int) ([]int, float64, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("core: k = %d must be positive", k)
	}
	type neighbor struct {
		id   int
		dist float64
	}
	nn := make([]neighbor, 0, len(collection))
	for _, c := range collection {
		if c.ID == q.ID {
			continue
		}
		d, err := distance.Euclidean(q.Values, c.Values)
		if err != nil {
			return nil, 0, fmt.Errorf("core: neighbour %d: %w", c.ID, err)
		}
		nn = append(nn, neighbor{c.ID, d})
	}
	sort.Slice(nn, func(i, j int) bool {
		if nn[i].dist != nn[j].dist {
			return nn[i].dist < nn[j].dist
		}
		return nn[i].id < nn[j].id
	})
	ids := make([]int, min(k, len(nn)))
	var kth float64
	for i := range ids {
		ids[i], kth = nn[i].id, nn[i].dist
	}
	return ids, kth, nil
}

// RangeQuery returns the IDs of all series within eps of q under Euclidean
// distance, excluding q's own ID. Applied to the exact (unperturbed) series
// it produces the ground-truth answer set of Section 4.1.2.
func RangeQuery(q timeseries.Series, collection []timeseries.Series, eps float64) ([]int, error) {
	if math.IsNaN(eps) || eps < 0 {
		return nil, errors.New("core: eps must be non-negative")
	}
	var out []int
	eps2 := eps * eps
	for _, c := range collection {
		if c.ID == q.ID {
			continue
		}
		d2, err := distance.SquaredEuclidean(q.Values, c.Values)
		if err != nil {
			return nil, fmt.Errorf("core: candidate %d: %w", c.ID, err)
		}
		if d2 <= eps2 {
			out = append(out, c.ID)
		}
	}
	return out, nil
}

// Len returns the number of series.
func (w *Workload) Len() int { return len(w.Exact) }

// Corpus returns the mutable corpus backing the workload's perturbed
// views. Mutating it does not change the workload — the workload is a view
// of the snapshot taken at construction — but it lets a caller seed a
// serving corpus with an evaluated workload's data.
func (w *Workload) Corpus() *corpus.Corpus { return w.corpus }

// Snapshot returns the immutable corpus snapshot the workload's
// PDF/Samples/Sigmas fields alias. Engines built from it reuse the corpus'
// precomputed per-series artifacts.
func (w *Workload) Snapshot() *corpus.Snapshot { return w.snap }

// SeriesLen returns the common series length.
func (w *Workload) SeriesLen() int { return w.Exact[0].Len() }

// Truth returns the ground-truth answer set for query index qi.
func (w *Workload) Truth(qi int) []int { return w.truth[qi] }

// EpsEucl returns the calibrated Euclidean threshold for query index qi.
func (w *Workload) EpsEucl(qi int) float64 { return w.epsEucl[qi] }

// CalibrationNeighbor returns the index of the K-th exact nearest neighbour
// of query qi — the series used to translate thresholds between distance
// spaces.
func (w *Workload) CalibrationNeighbor(qi int) int {
	id := w.calNN[qi]
	// IDs equal slice indexes for datasets produced by this repository, but
	// be defensive: resolve by ID.
	if id >= 0 && id < len(w.Exact) && w.Exact[id].ID == id {
		return id
	}
	for i, s := range w.Exact {
		if s.ID == id {
			return i
		}
	}
	return -1
}
