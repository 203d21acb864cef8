package engine

import (
	"cmp"
	"fmt"
	"math"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// Query is an ad-hoc query series: an arbitrary uncertain series, not
// necessarily resident in any corpus, posed against the engine's snapshot.
// It is derived as an insert into the snapshot's corpus would derive it
// (corpus.Snapshot.Derive), so a query carrying a resident series' values
// and error model is that series to every measure. Every measure but MUNICH
// needs Values; MUNICH needs Samples and reads nothing else, so its Values
// may be left out.
type Query struct {
	// Values holds one observed value per timestamp.
	Values []float64
	// Sigma optionally sets the query's error model, Normal(0, Sigma) at
	// every timestamp, as /series attaches it to an inserted series: the
	// UMA/UEMA filter weights, DUST's model and the stddev PROUD assumes for
	// the query side. 0 adopts the snapshot's default error model. The
	// cluster coordinator relies on it to forward a resident series to the
	// other shards as its values and sigma without losing its error model.
	Sigma float64
	// Samples optionally attaches the repeated-observation model
	// (required for MeasureMUNICH).
	Samples [][]float64
}

// prepared is the per-request state of one query: the request's target bound
// to the engine, the same way for a resident query and an ad-hoc one (bind).
// Every field aliases the query's own derived state: its row of the column
// the measure scans (filtered for UMA/UEMA) and of its prefilter's column,
// its error model (DUST), energy (PROUD), sample model and bounding
// intervals (MUNICH). It is immutable once built; the workers of the
// request share it.
type prepared struct {
	self int // snapshot position to exclude (-1 for ad-hoc queries)

	vec    []float64              // scan vector (lock-step measures, DTW, PROUD)
	qrow   []float64              // the query's row of the engaged prefilter's column
	slack  float64                // tier 0's absolute rounding allowance for this query
	pdf    uncertain.PDFSeries    // error model (DUST)
	energy float64                // proud.Energy of the observations (PROUD)
	varD   float64                // per-timestamp D_i variance sum (PROUD)
	sample uncertain.SampleSeries // repeated-observation model (MUNICH)
	iv     munich.Intervals       // per-timestamp bounding intervals (MUNICH)
}

// prepareIndex binds the resident series at snapshot position qi as a
// query; the series itself is excluded from the answer.
func (e *Engine) prepareIndex(qi int) (*prepared, error) {
	if err := e.checkIndex(qi); err != nil {
		return nil, err
	}
	return e.bind(qi, e.snap.Entry(qi), e.snap.Arena(), qi, e.snap.ReportedSigma()), nil
}

// prepare derives an ad-hoc series through the snapshot's corpus and binds
// row 0 of what it derived as a query. The query never excludes a
// candidate (it is not resident).
func (e *Engine) prepare(q Query) (*prepared, error) {
	if q.Sigma < 0 || math.IsNaN(q.Sigma) {
		return nil, fmt.Errorf("engine: %w", qerr.BadRequestf("query sigma %v must be non-negative", q.Sigma))
	}
	s := corpus.Series{Values: q.Values, Samples: q.Samples}
	if e.opts.Measure == MeasureMUNICH {
		if q.Samples == nil {
			return nil, fmt.Errorf("engine: %w", qerr.BadRequestf("MeasureMUNICH queries need a sample model (Query.Samples)"))
		}
		if q.Values == nil {
			s.Values = make([]float64, e.snap.SeriesLen()) // read by no MUNICH stage
		}
	}
	if q.Sigma > 0 {
		var d stats.Dist = stats.NewNormal(0, q.Sigma) // boxed once: no allocation per timestamp
		s.Errors = make([]stats.Dist, len(s.Values))
		for i := range s.Errors {
			s.Errors[i] = d
		}
	}
	ent, cols, err := e.snap.Derive(s)
	if err != nil {
		return nil, fmt.Errorf("engine: query: %w", err)
	}
	return e.bind(-1, ent, cols, 0, cmp.Or(q.Sigma, e.snap.ReportedSigma())), nil
}

// bind binds a series as a query excluding position self: ent is its entry
// and position i of cols holds its artifacts — the snapshot's own columns
// for a resident query, the one row an ad-hoc query derived for another.
// The measure's plan picks the rows it reads from either, so both read what
// an insert derived, in place. sigma is the query side's constant error
// stddev PROUD assumes (the reported one for a resident query, as a naive
// scan feeds proud.Distance; an ad-hoc query's own, if it has one), every
// candidate's being the reported one.
func (e *Engine) bind(self int, ent *corpus.Entry, cols *corpus.Columns, i int, sigma float64) *prepared {
	vecs, pre, _ := plan(e.opts.Measure, cols) // NewFromSnapshot refused a measure without one
	energy, cs := column(cols.Energy, cols.Rows), e.snap.ReportedSigma()
	pq := &prepared{self: self, vec: vecs.at(i), pdf: ent.PDF, energy: energy.at(i)[0], varD: sigma*sigma + cs*cs, iv: ent.Intervals}
	if ent.Samples != nil {
		pq.sample = *ent.Samples
	}
	if e.pre != nil {
		pq.qrow, pq.slack = pre.rows.at(i), e.pre.slack(pq.vec)
	}
	return pq
}
