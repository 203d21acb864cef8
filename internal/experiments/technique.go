package experiments

import (
	"context"
	"fmt"

	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/engine"
	"uncertts/internal/query"
	"uncertts/internal/timeseries"
)

// Technique names one technique of the paper on the common task of Section
// 4.1.2: an engine measure, the probability threshold of the probabilistic
// measures, and — for the Section 5 parameter studies — the UMA/UEMA filter
// geometry. This file is the only place that decides how a technique is
// answered, and every answer is an engine.Run over the workload's corpus.
type Technique struct {
	// Measure is the engine measure that answers the technique.
	Measure engine.Measure
	// Tau is the probability threshold of PROUD and MUNICH (CalibrateTau
	// finds the paper's "optimal" one).
	Tau float64
	// W, Lambda and Mode are the UMA/UEMA window half-width, decay and
	// weight reading, with corpus.Config's zero values: the paper's w = 2,
	// lambda = 1 and normalised weights, which is what the workload's own
	// corpus filters with. Any other setting is answered over a sibling
	// corpus of the same series (see bind). Ignored by the other measures.
	W      int
	Lambda float64
	Mode   timeseries.WeightMode
}

// UMA is the UMA measure with window half-width w. A window of zero is the
// identity filter, which is the Euclidean technique (Figure 13's w = 0).
func UMA(w int) Technique {
	if w == 0 {
		return Technique{Measure: engine.MeasureEuclidean}
	}
	return Technique{Measure: engine.MeasureUMA, W: w}
}

// UEMA is the UEMA measure with window half-width w and decay lambda. A
// decay of zero weighs the whole window alike, which is UMA (Figure 14's
// lambda = 0).
func UEMA(w int, lambda float64) Technique {
	if w == 0 || lambda == 0 {
		return UMA(w)
	}
	return Technique{Measure: engine.MeasureUEMA, W: w, Lambda: lambda}
}

// bound is a technique bound to a workload: the engine that answers it.
type bound struct {
	w *core.Workload
	t Technique
	e *engine.Engine
}

// bind builds the technique's engine over the workload's corpus snapshot —
// or, when the technique sets a filter geometry of its own, over a sibling
// corpus holding the same series under that geometry. opts carries the
// executor settings (the timing figures pin NoPrune and one worker); the
// measure is the technique's.
func bind(w *core.Workload, t Technique, opts engine.Options) (*bound, error) {
	snap := w.Snapshot()
	filtered := t.Measure == engine.MeasureUMA || t.Measure == engine.MeasureUEMA
	if filtered && (t.W != 0 || t.Lambda != 0 || t.Mode != timeseries.WeightModeNormalized) {
		cfg := snap.Config()
		cfg.W, cfg.Lambda, cfg.Mode = t.W, t.Lambda, t.Mode
		batch := make([]corpus.Series, snap.Len())
		for i := range batch {
			pdf := snap.Entry(i).PDF
			batch[i] = corpus.Series{Values: pdf.Observations, Errors: pdf.Errors, Label: pdf.Label}
		}
		c := corpus.New(cfg)
		if _, err := c.InsertBatch(batch); err != nil {
			return nil, fmt.Errorf("experiments: %v under w=%d lambda=%g: %w", t.Measure, t.W, t.Lambda, err)
		}
		snap = c.Snapshot()
	}
	opts.Measure = t.Measure
	// The paper's collections (16 to 80 series) fit inside one default
	// shard, which would leave every scan to a single worker.
	opts.ShardSize = 8
	e, err := engine.NewFromSnapshot(snap, opts)
	if err != nil {
		return nil, err
	}
	return &bound{w: w, t: t, e: e}, nil
}

// run answers one request of the technique for query qi, with the
// thresholds of Section 4.1.2: a probabilistic measure is asked at the
// Euclidean threshold calibrated on the ground truth and the technique's
// tau; a distance measure's range threshold is its own distance between the
// query and the calibration neighbour ("we define eps_dust as the DUST
// distance between q and c"). k is the K of the two top-k kinds.
func (b *bound) run(qi int, kind engine.Kind, k int) (*engine.Result, error) {
	if qi < 0 || qi >= b.w.Len() {
		return nil, fmt.Errorf("experiments: query index %d outside [0, %d)", qi, b.w.Len())
	}
	req := engine.Request{Measure: b.t.Measure, Kind: kind, Index: &qi, K: k, Tau: b.t.Tau}
	switch kind {
	case engine.KindProbRange, engine.KindProbTopK:
		req.Eps = b.w.EpsEucl(qi)
	case engine.KindRange:
		eps, err := b.e.Distance(qi, b.w.CalibrationNeighbor(qi))
		if err != nil {
			return nil, fmt.Errorf("experiments: %v: threshold calibration: %w", b.t.Measure, err)
		}
		req.Eps = eps
	}
	return b.e.Run(context.Background(), req)
}

// match answers the similarity-matching task for query qi: the positions of
// the series the technique returns.
func (b *bound) match(qi int) ([]int, error) {
	kind := engine.KindRange
	if b.t.Measure.Probabilistic() {
		kind = engine.KindProbRange
	}
	res, err := b.run(qi, kind, 0)
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// Match answers the similarity-matching task of Section 4.1.2 for one query
// of the workload and returns the matching series.
func Match(w *core.Workload, t Technique, qi int) ([]int, error) {
	b, err := bind(w, t, engine.Options{})
	if err != nil {
		return nil, err
	}
	return b.match(qi)
}

// allQueries resolves the nil query list: every series as a query, the
// paper's protocol.
func allQueries(w *core.Workload, queries []int) []int {
	if queries != nil {
		return queries
	}
	return queryIndexes(w, 0)
}

// Evaluate runs the technique over the given query indexes (nil = every
// series) and scores each answer against the ground truth.
func Evaluate(w *core.Workload, t Technique, queries []int) ([]query.Metrics, error) {
	b, err := bind(w, t, engine.Options{})
	if err != nil {
		return nil, err
	}
	queries = allQueries(w, queries)
	out := make([]query.Metrics, len(queries))
	for i, qi := range queries {
		got, err := b.match(qi)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v on query %d: %w", t.Measure, qi, err)
		}
		out[i] = query.Evaluate(got, w.Truth(qi))
	}
	return out, nil
}

// DefaultTauGrid is the tau grid CalibrateTau sweeps by default. It reaches
// far into the small-tau regime because PROUD's distance statistic
// double-counts realized noise (the observed distance already contains the
// perturbation that E[dist^2] adds again), so its optimal tau sits well
// below 0.5 at moderate noise.
var DefaultTauGrid = []float64{1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95}

// CalibrateTau reproduces the paper's "optimal probabilistic threshold tau
// determined after repeated experiments" for PROUD or MUNICH: it returns
// the tau of the grid (nil = DefaultTauGrid) with the best mean F1 over the
// queries, and that F1. A match probability does not depend on tau, so each
// query pays for one ranking of every candidate by probability, which the
// whole grid then thresholds.
func CalibrateTau(w *core.Workload, t Technique, queries []int, grid []float64) (bestTau, bestF1 float64, err error) {
	if grid == nil {
		grid = DefaultTauGrid
	}
	b, err := bind(w, t, engine.Options{})
	if err != nil {
		return 0, 0, err
	}
	queries = allQueries(w, queries)
	probs := make([][]engine.ProbMatch, len(queries))
	for i, qi := range queries {
		res, err := b.run(qi, engine.KindProbTopK, w.Len()-1)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: calibrating %v tau on query %d: %w", t.Measure, qi, err)
		}
		probs[i] = res.Matches
	}
	bestF1 = -1
	ms := make([]query.Metrics, len(queries))
	for _, tau := range grid {
		for i, qi := range queries {
			var got []int
			for _, m := range probs[i] {
				if m.Prob >= tau {
					got = append(got, m.ID)
				}
			}
			ms[i] = query.Evaluate(got, w.Truth(qi))
		}
		if f1 := query.AverageMetrics(ms).F1; f1 > bestF1 {
			bestTau, bestF1 = tau, f1
		}
	}
	return bestTau, bestF1, nil
}
