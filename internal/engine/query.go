package engine

import (
	"fmt"
	"math"

	"uncertts/internal/distance"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
	"uncertts/internal/sketch"
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
//   - Errors refines DUST's query-side error model and the UMA/UEMA filter
//     weights (nil adopts the snapshot's reported error model);
//   - Sigma overrides the constant error stddev PROUD assumes for the
//     query side and, when Errors is nil, the filter weights (0 adopts the
//     snapshot's reported sigma).
type Query struct {
	// Values holds one observed value per timestamp.
	Values []float64
	// Errors optionally attaches per-timestamp error distributions.
	Errors []stats.Dist
	// Sigma optionally overrides the constant error stddev of the query.
	Sigma float64
	// Samples optionally attaches the repeated-observation model
	// (required for MeasureMUNICH).
	Samples [][]float64
}

// prepared is the per-request state of one query: the request's target bound
// to the engine with everything the scan derives from it computed once — the
// measure-specific scan vector (filtered series for UMA/UEMA), the query-side
// error model for DUST, suffix energies and the moment variance for PROUD,
// the sample model, its per-timestamp bounding intervals and segment envelope
// for MUNICH, and the summaries the engaged prefilter reads. It is immutable once built; the workers of the
// request share it.
type prepared struct {
	self int // snapshot position to exclude (-1 for ad-hoc queries)

	vec    []float64              // scan vector (lock-step measures, DTW, PROUD)
	qc     []float64              // coarse segment means of vec (tier 0 engines)
	slack  float64                // tier 0's absolute rounding allowance for this query
	qpaa   []float64              // PAA of vec over the sketch layout (indexed DTW)
	qenvLo []float64              // PAA of the query's lower DTW envelope (indexed DTW)
	qenvHi []float64              // PAA of the query's upper DTW envelope (indexed DTW)
	pdf    uncertain.PDFSeries    // query-side error model (DUST)
	suffix []float64              // query suffix energies (PROUD)
	varD   float64                // per-timestamp D_i variance sum (PROUD)
	sample uncertain.SampleSeries // repeated-observation model (MUNICH)
	iv     munich.Intervals       // query per-timestamp bounding intervals (MUNICH)
	env    munich.Envelope        // query segment envelope (MUNICH)
}

// prepareIndex binds the resident series at snapshot position qi as a
// query. All derived state but MUNICH's bounding intervals aliases the
// engine's precomputed artifacts; the series itself is excluded from the
// answer.
func (e *Engine) prepareIndex(qi int) (*prepared, error) {
	if err := e.checkIndex(qi); err != nil {
		return nil, err
	}
	pq := &prepared{self: qi}
	ent := e.snap.Entry(qi)
	switch e.opts.Measure {
	case MeasureEuclidean, MeasureUMA, MeasureUEMA, MeasureDTW:
		pq.vec = e.vecs.at(qi)
	case MeasureDUST:
		pq.pdf = ent.PDF
	case MeasurePROUD:
		pq.vec = e.vecs.at(qi)
		pq.suffix = e.suffix.at(qi)
		pq.varD = e.varD
	case MeasureMUNICH:
		pq.sample = *ent.Samples
		pq.iv = munich.BoundingIntervals(pq.sample)
		pq.env = ent.Env
	}
	return pq, nil
}

// summarise attaches the query-side summaries the engaged prefilter reads:
// the coarse segment means for tier 0 (a resident query aliases its own
// filter-column row), the PAA of the query and of its warping envelope for
// the DTW bucket bounds.
func (e *Engine) summarise(pq *prepared) {
	switch {
	case e.t0 != nil:
		if pq.self >= 0 {
			pq.qc = e.t0.means.at(pq.self)
		} else {
			pq.qc = sketch.PAA(pq.vec, e.t0.geo.Spans)
		}
		var energy float64
		for _, v := range pq.vec {
			energy += v * v
		}
		pq.slack = e.t0.slack(energy)
	case e.idx != nil:
		pq.qpaa = sketch.PAA(pq.vec, e.idx.lay.Spans)
		up, lo := distance.Envelope(pq.vec, e.cfg.Band)
		pq.qenvHi = sketch.PAA(up, e.idx.lay.Spans)
		pq.qenvLo = sketch.PAA(lo, e.idx.lay.Spans)
	}
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
	if q.Errors != nil && len(q.Errors) != n {
		return nil, fmt.Errorf("engine: %w", qerr.LengthMismatchf("query has %d error distributions, want %d", len(q.Errors), n))
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
		errs := q.Errors
		if errs == nil && q.Sigma > 0 {
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
		if errs == nil {
			errs = e.snap.DefaultErrors()
		}
		pq.pdf = uncertain.PDFSeries{Observations: append([]float64(nil), q.Values...), Errors: errs, ID: -1}
		if err := pq.pdf.Validate(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	case MeasurePROUD:
		pq.vec = append([]float64(nil), q.Values...)
		pq.suffix = proud.SuffixEnergy(pq.vec)
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
		pq.env = munich.BuildEnvelope(pq.sample, e.cfg.Segments)
	default:
		return nil, fmt.Errorf("engine: %w: %v", qerr.ErrUnknownMeasure, e.opts.Measure)
	}
	return pq, nil
}

// querySigmas resolves the per-timestamp error stddevs of an ad-hoc query
// for the filter measures: its own error model first, then a constant
// override, then the snapshot's reported sigmas.
func (e *Engine) querySigmas(q Query) []float64 {
	n := e.snap.SeriesLen()
	out := make([]float64, n)
	switch {
	case q.Errors != nil:
		for i := range out {
			out[i] = math.Sqrt(q.Errors[i].Variance())
		}
	case q.Sigma > 0:
		for i := range out {
			out[i] = q.Sigma
		}
	default:
		if e.cfg.Sigmas != nil {
			copy(out, e.cfg.Sigmas)
		} else {
			for i := range out {
				out[i] = e.snap.ReportedSigma()
			}
		}
	}
	return out
}
