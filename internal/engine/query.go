package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"uncertts/internal/distance"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
	"uncertts/internal/query"
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

// PreparedQuery is a query bound to an engine with all its derived state
// precomputed: the measure-specific scan vector (filtered series for
// UMA/UEMA), the query-side error model for DUST, suffix energies and the
// moment variance for PROUD, the sample model and segment envelope for
// MUNICH. Preparing once and querying many times amortises that setup; a
// PreparedQuery is safe for concurrent use.
type PreparedQuery struct {
	// Workers optionally overrides the engine's worker budget for
	// requests issued through this query (0 = the engine default). The
	// server sets it per HTTP request.
	Workers int
	// Bound optionally shares a top-k pruning cut with executions outside
	// this engine — cluster shards running the same query inject one
	// Bound into every shard's request so the global k-th distance
	// tightens each shard's cascade mid-flight. Nil (the default) keeps
	// the cut private to the execution. Only KindTopK consults it.
	Bound *Bound
	// ProbBound is Bound for KindProbTopK (rising k-th best probability).
	ProbBound *ProbBound

	e    *Engine
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
	env    munich.Envelope        // query segment envelope (MUNICH)
}

// PrepareIndex binds the resident series at snapshot position qi as a
// query. All derived state aliases the engine's precomputed artifacts, so
// preparation is allocation-free on the hot fields; results exclude the
// series itself, exactly as the index-based query methods do.
func (e *Engine) PrepareIndex(qi int) (*PreparedQuery, error) {
	if err := e.checkIndex(qi); err != nil {
		return nil, err
	}
	pq := &PreparedQuery{e: e, self: qi}
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
		pq.env = e.envs[qi]
	}
	e.summarise(pq)
	return pq, nil
}

// summarise attaches the query-side summaries the engaged prefilter reads:
// the coarse segment means for tier 0 (a resident query aliases its own
// filter-column row), the PAA of the query and of its warping envelope for
// the DTW bucket bounds.
func (e *Engine) summarise(pq *PreparedQuery) {
	switch {
	case e.t0 != nil:
		if pq.self >= 0 {
			pq.qc = e.t0.row(pq.self)
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
		up, lo := distance.Envelope(pq.vec, e.band)
		pq.qenvHi = sketch.PAA(up, e.idx.lay.Spans)
		pq.qenvLo = sketch.PAA(lo, e.idx.lay.Spans)
	}
}

func (e *Engine) prepareIndexBatch(queries []int) ([]*PreparedQuery, error) {
	pqs := make([]*PreparedQuery, len(queries))
	for i, qi := range queries {
		pq, err := e.PrepareIndex(qi)
		if err != nil {
			return nil, err
		}
		pqs[i] = pq
	}
	return pqs, nil
}

// Prepare binds an ad-hoc series as a query against the engine's snapshot,
// computing the measure-specific derived state once. The returned query
// never excludes a candidate (it is not resident), and may be reused for
// any number of requests.
func (e *Engine) Prepare(q Query) (*PreparedQuery, error) {
	n := e.snap.SeriesLen()
	pq := &PreparedQuery{e: e, self: -1}
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

	switch e.opts.Measure {
	case MeasureEuclidean, MeasureDTW:
		pq.vec = append([]float64(nil), q.Values...)
	case MeasureUMA, MeasureUEMA:
		sigmas := e.querySigmas(q)
		var f []float64
		var err error
		if e.opts.Measure == MeasureUMA {
			f, err = timeseries.UncertainMovingAverage(q.Values, sigmas, e.opts.W, e.opts.Mode)
		} else {
			f, err = timeseries.UncertainExponentialMovingAverage(q.Values, sigmas, e.opts.W, e.opts.Lambda, e.opts.Mode)
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
		pq.env = munich.BuildEnvelope(pq.sample, e.segments)
	default:
		return nil, fmt.Errorf("engine: %w: %v", qerr.ErrUnknownMeasure, e.opts.Measure)
	}
	e.summarise(pq)
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
		cfg := e.snap.Config()
		if cfg.Sigmas != nil {
			copy(out, cfg.Sigmas)
		} else {
			for i := range out {
				out[i] = e.snap.ReportedSigma()
			}
		}
	}
	return out
}

// checkPrepared validates that every prepared query belongs to this engine.
func (e *Engine) checkPrepared(pqs []*PreparedQuery) error {
	for _, pq := range pqs {
		if pq == nil {
			return errors.New("engine: nil prepared query")
		}
		if pq.e != e {
			return errors.New("engine: prepared query belongs to a different engine")
		}
	}
	return nil
}

// TopK returns the k nearest snapshot positions of the prepared query
// under the engine's measure, sorted by ascending distance with ties
// broken by position — bit-identical to the naive full scan.
func (pq *PreparedQuery) TopK(k int) ([]query.Neighbor, error) {
	res, err := pq.e.TopKPrepared([]*PreparedQuery{pq}, k)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Range returns the snapshot positions of every series within eps of the
// prepared query, in ascending order.
func (pq *PreparedQuery) Range(eps float64) ([]int, error) {
	return pq.e.rangePrepared(context.Background(), pq, eps, nil)
}

// ProbRange returns the snapshot positions of every candidate whose match
// probability Pr(distance <= eps) reaches tau (MeasurePROUD and
// MeasureMUNICH only).
func (pq *PreparedQuery) ProbRange(eps, tau float64) ([]int, error) {
	res, err := pq.e.ProbRangePrepared([]*PreparedQuery{pq}, eps, tau)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ProbTopK returns the k candidates with the highest match probability
// Pr(distance <= eps), sorted by descending probability with ties broken
// by ascending position (MeasurePROUD and MeasureMUNICH only).
func (pq *PreparedQuery) ProbTopK(eps float64, k int) ([]ProbMatch, error) {
	res, err := pq.e.ProbTopKPrepared([]*PreparedQuery{pq}, eps, k)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
