// Package uncertain defines the two uncertain time-series models the paper
// compares (Section 2) and the perturbation engine that manufactures
// uncertain series from exact ground truth (Section 4.1.1):
//
//   - PDFSeries: one observation per timestamp plus a per-timestamp error
//     distribution — the model consumed by PROUD and DUST (paper Figure 1).
//   - SampleSeries: repeated observations per timestamp — the model consumed
//     by MUNICH (paper Figure 2).
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
)

// ErrEmpty is returned when an uncertain series has no timestamps.
var ErrEmpty = errors.New("uncertain: empty series")

// PDFSeries models an uncertain time series as a sequence of random
// variables t_i = Observations[i] - error_i, where error_i follows
// Errors[i]. Observations are what a sensor actually reported; the true
// value is unknown.
type PDFSeries struct {
	// Observations holds the single observed value per timestamp.
	Observations []float64
	// Errors holds the error distribution at each timestamp. Errors[i]
	// describes observation-minus-truth at timestamp i.
	Errors []stats.Dist
	// Label carries the class label of the underlying exact series.
	Label int
	// ID identifies the series within its dataset.
	ID int
}

// Len returns the number of timestamps.
func (p PDFSeries) Len() int { return len(p.Observations) }

// Validate checks structural invariants.
func (p PDFSeries) Validate() error {
	if len(p.Observations) == 0 {
		return ErrEmpty
	}
	if len(p.Observations) != len(p.Errors) {
		return fmt.Errorf("uncertain: PDFSeries %d: %d observations but %d error distributions", p.ID, len(p.Observations), len(p.Errors))
	}
	for i, e := range p.Errors {
		if e == nil {
			return fmt.Errorf("uncertain: PDFSeries %d: nil error distribution at timestamp %d", p.ID, i)
		}
	}
	return nil
}

// CheckFinite rejects a NaN or infinite observation or sample with an error
// wrapping qerr.ErrBadRequest. No measure gives one a meaning — a NaN
// distance sorts nowhere, infinite ones cannot be ranked — and the DTW
// kernel's branch-free minimum relies on never meeting one.
func CheckFinite(values []float64, samples [][]float64) error {
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return qerr.BadRequestf("value %v at timestamp %d is not finite", v, i)
		}
	}
	for i, obs := range samples {
		for _, v := range obs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return qerr.BadRequestf("sample %v at timestamp %d is not finite", v, i)
			}
		}
	}
	return nil
}

// Sigma returns the error standard deviation at timestamp i.
func (p PDFSeries) Sigma(i int) float64 { return math.Sqrt(p.Errors[i].Variance()) }

// Sigmas returns the per-timestamp error standard deviations.
func (p PDFSeries) Sigmas() []float64 {
	out := make([]float64, p.Len())
	for i := range out {
		out[i] = p.Sigma(i)
	}
	return out
}

// ValueDist returns the distribution of the *true* value at timestamp i
// implied by the observation and the error model: truth = observation -
// error (the error distribution describes observation minus truth).
func (p PDFSeries) ValueDist(i int) stats.Dist {
	return ShiftedNegated{Base: p.Errors[i], Offset: p.Observations[i]}
}

// ShiftedNegated is the distribution of (Offset - X) where X ~ Base. It is
// the posterior of the true value given an observation under a known error
// distribution (with a flat prior), which is exactly what DUST's phi
// integral needs.
type ShiftedNegated struct {
	Base   stats.Dist
	Offset float64
}

// PDF returns the density of Offset - X at x.
func (s ShiftedNegated) PDF(x float64) float64 { return s.Base.PDF(s.Offset - x) }

// CDF returns P(Offset - X <= x) = P(X >= Offset - x) = 1 - CDF_X(Offset-x)
// for continuous X.
func (s ShiftedNegated) CDF(x float64) float64 { return 1 - s.Base.CDF(s.Offset-x) }

// Quantile inverts the CDF: Q(p) = Offset - Q_X(1-p).
func (s ShiftedNegated) Quantile(p float64) float64 { return s.Offset - s.Base.Quantile(1-p) }

// Sample draws Offset - X.
func (s ShiftedNegated) Sample(rng *rand.Rand) float64 { return s.Offset - s.Base.Sample(rng) }

// Mean returns Offset - E[X].
func (s ShiftedNegated) Mean() float64 { return s.Offset - s.Base.Mean() }

// Variance returns Var[X].
func (s ShiftedNegated) Variance() float64 { return s.Base.Variance() }

// Support reflects and shifts the base support.
func (s ShiftedNegated) Support() (float64, float64) {
	lo, hi := s.Base.Support()
	return s.Offset - hi, s.Offset - lo
}

func (s ShiftedNegated) String() string {
	return fmt.Sprintf("%g - %v", s.Offset, s.Base)
}

// SampleSeries models an uncertain time series by repeated observations:
// Samples[i] lists the s observations recorded at timestamp i (paper
// Figure 2, the MUNICH input model).
type SampleSeries struct {
	// Samples[i][j] is the j-th observation at timestamp i.
	Samples [][]float64
	// Label carries the class label of the underlying exact series.
	Label int
	// ID identifies the series within its dataset.
	ID int
}

// Len returns the number of timestamps.
func (s SampleSeries) Len() int { return len(s.Samples) }

// SamplesPerTimestamp returns the (maximum) number of observations per
// timestamp.
func (s SampleSeries) SamplesPerTimestamp() int {
	max := 0
	for _, obs := range s.Samples {
		if len(obs) > max {
			max = len(obs)
		}
	}
	return max
}

// Validate checks structural invariants: at least one timestamp and at least
// one observation everywhere.
func (s SampleSeries) Validate() error {
	if len(s.Samples) == 0 {
		return ErrEmpty
	}
	for i, obs := range s.Samples {
		if len(obs) == 0 {
			return fmt.Errorf("uncertain: SampleSeries %d: no observations at timestamp %d", s.ID, i)
		}
	}
	return nil
}

// Means returns the per-timestamp sample means, the natural single-value
// reduction of the repeated-observation model.
func (s SampleSeries) Means() []float64 {
	out := make([]float64, len(s.Samples))
	for i, obs := range s.Samples {
		out[i] = stats.Mean(obs)
	}
	return out
}

// MinMaxAt returns the smallest and largest observation at timestamp i;
// these are the "minimal bounding intervals" MUNICH uses for pruning.
func (s SampleSeries) MinMaxAt(i int) (float64, float64) {
	return stats.MinMax(s.Samples[i])
}

// PDFDataset is a collection of PDFSeries, the perturbed counterpart of a
// timeseries.Dataset.
type PDFDataset struct {
	Name   string
	Series []PDFSeries
}

// Len returns the number of series.
func (d PDFDataset) Len() int { return len(d.Series) }

// SampleDataset is a collection of SampleSeries.
type SampleDataset struct {
	Name   string
	Series []SampleSeries
}

// Len returns the number of series.
func (d SampleDataset) Len() int { return len(d.Series) }

// FromExact wraps an exact series as a degenerate PDFSeries whose errors all
// have the given distribution. It is the bridge used when a technique needs
// an uncertainty model for the query side.
func FromExact(s timeseries.Series, err stats.Dist) PDFSeries {
	obs := make([]float64, s.Len())
	copy(obs, s.Values)
	errs := make([]stats.Dist, s.Len())
	for i := range errs {
		errs[i] = err
	}
	return PDFSeries{Observations: obs, Errors: errs, Label: s.Label, ID: s.ID}
}
