package engine

import (
	"cmp"
	"fmt"
	"math"

	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/uncertain"
)

// Query is an ad-hoc query series: an arbitrary uncertain series, not
// necessarily resident in any corpus, posed against the engine's snapshot.
// Which fields are required depends on the engine's measure:
//
//   - Euclidean, UMA, UEMA, DTW, PROUD, DUST need Values;
//   - MUNICH needs Samples;
//   - Sigma sets the query's constant error stddev: the one PROUD assumes
//     for the query side, the UMA/UEMA filter weights and DUST's Normal(0,
//     Sigma) error model (0 adopts the snapshot's reported error model).
type Query struct {
	// Values holds one observed value per timestamp.
	Values []float64
	// Sigma optionally sets the constant error stddev of the query.
	Sigma float64
	// Samples optionally attaches the repeated-observation model
	// (required for MeasureMUNICH).
	Samples [][]float64
}

// prepared is the per-request state of one query: the request's target bound
// to the engine with everything the scan derives from it computed once — the
// measure-specific scan vector (filtered series for UMA/UEMA), the query-side
// error model for DUST, the observation energy and the moment variance for
// PROUD, the sample model and its per-timestamp bounding intervals for
// MUNICH, and the summaries the engaged prefilter reads. It is immutable once
// built; the workers of the request share it.
type prepared struct {
	self int // snapshot position to exclude (-1 for ad-hoc queries)

	vec    []float64              // scan vector (lock-step measures, DTW, PROUD)
	qc     []float64              // coarse segment means of vec (tier 0 engines)
	slack  float64                // tier 0's absolute rounding allowance for this query
	qpaa   []float64              // PAA of vec over the sketch layout (indexed DTW)
	qenvLo []float64              // PAA of the query's lower DTW envelope (indexed DTW)
	qenvHi []float64              // PAA of the query's upper DTW envelope (indexed DTW)
	pdf    uncertain.PDFSeries    // query-side error model (DUST)
	energy float64                // proud.Energy of the query's observations (PROUD)
	varD   float64                // per-timestamp D_i variance sum (PROUD)
	sample uncertain.SampleSeries // repeated-observation model (MUNICH)
	iv     munich.Intervals       // query per-timestamp bounding intervals (MUNICH)
}

// prepareIndex binds the resident series at snapshot position qi as a
// query. All derived state aliases the entry's row of every column the
// engine bound; the series itself is excluded from the answer.
func (e *Engine) prepareIndex(qi int) (*prepared, error) {
	if err := e.checkIndex(qi); err != nil {
		return nil, err
	}
	ent := e.snap.Entry(qi)
	pq := &prepared{self: qi, vec: e.vecs.at(qi), pdf: ent.PDF, energy: e.energy.at(qi)[0], varD: e.varD, iv: ent.Intervals}
	if ent.Samples != nil {
		pq.sample = *ent.Samples
	}
	return pq, nil
}

// prepare binds an ad-hoc series as a query against the engine's snapshot,
// computing the measure-specific derived state once. The query never
// excludes a candidate (it is not resident).
func (e *Engine) prepare(q Query) (*prepared, error) {
	n := e.snap.SeriesLen()
	pq := &prepared{self: -1}
	needValues := e.opts.Measure != MeasureMUNICH
	if needValues && len(q.Values) != n {
		return nil, fmt.Errorf("engine: %w", qerr.LengthMismatchf("query has %d values, snapshot series have %d", len(q.Values), n))
	}
	if q.Sigma < 0 || math.IsNaN(q.Sigma) {
		return nil, fmt.Errorf("engine: %w", qerr.BadRequestf("query sigma %v must be non-negative", q.Sigma))
	}
	if err := uncertain.CheckFinite(q.Values, q.Samples); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	switch e.opts.Measure {
	case MeasureEuclidean, MeasureDTW:
		pq.vec = append([]float64(nil), q.Values...)
	case MeasureUMA, MeasureUEMA:
		sigmas := e.querySigmas(q)
		var f []float64
		var err error
		if e.opts.Measure == MeasureUMA {
			f, err = timeseries.UncertainMovingAverage(q.Values, sigmas, e.cfg.W, e.cfg.Mode)
		} else {
			f, err = timeseries.UncertainExponentialMovingAverage(q.Values, sigmas, e.cfg.W, e.cfg.Lambda, e.cfg.Mode)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: filtering query: %w", err)
		}
		pq.vec = f
	case MeasureDUST:
		errs := e.snap.DefaultErrors()
		if q.Sigma > 0 {
			// A constant sigma is a full error model for DUST: Normal(0,
			// sigma) per timestamp, matching what ingesting the series with
			// that sigma would have attached. The cluster coordinator leans
			// on this to forward a resident query series to remote shards
			// as values+sigma without losing the error model.
			d := stats.NewNormal(0, q.Sigma)
			errs = make([]stats.Dist, n)
			for i := range errs {
				errs[i] = d
			}
		}
		pq.pdf = uncertain.PDFSeries{Observations: append([]float64(nil), q.Values...), Errors: errs, ID: -1}
		if err := pq.pdf.Validate(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	case MeasurePROUD:
		pq.vec = append([]float64(nil), q.Values...)
		pq.energy = proud.Energy(pq.vec)
		qSigma := q.Sigma
		if qSigma == 0 {
			qSigma = e.snap.ReportedSigma()
		}
		cSigma := e.snap.ReportedSigma()
		pq.varD = qSigma*qSigma + cSigma*cSigma
	case MeasureMUNICH:
		if q.Samples == nil {
			return nil, fmt.Errorf("engine: %w", qerr.BadRequestf("MeasureMUNICH queries need a sample model (Query.Samples)"))
		}
		if len(q.Samples) != n {
			return nil, fmt.Errorf("engine: %w", qerr.LengthMismatchf("query sample model has %d timestamps, want %d", len(q.Samples), n))
		}
		pq.sample = uncertain.SampleSeries{Samples: q.Samples, ID: -1}
		if err := pq.sample.Validate(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		pq.iv = munich.BoundingIntervals(pq.sample)
	}
	return pq, nil
}

// querySigmas resolves the per-timestamp error stddevs of an ad-hoc query
// for the filter measures: its constant sigma, else the snapshot's reported
// sigmas.
func (e *Engine) querySigmas(q Query) []float64 {
	out := make([]float64, e.snap.SeriesLen())
	if q.Sigma == 0 && e.cfg.Sigmas != nil {
		copy(out, e.cfg.Sigmas)
		return out
	}
	sigma := cmp.Or(q.Sigma, e.snap.ReportedSigma())
	for i := range out {
		out[i] = sigma
	}
	return out
}
