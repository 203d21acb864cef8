// Package timeseries provides the certain (exact-valued) time-series
// substrate: the Series type, z-normalization, resampling, moving-average
// filters, and shape generators. Uncertainty is layered on top of it by
// package uncertain.
package timeseries

import (
	"errors"
	"fmt"
	"math"

	"uncertts/internal/stats"
)

// ErrLengthMismatch is returned when an operation requires equal-length series.
var ErrLengthMismatch = errors.New("timeseries: series lengths differ")

// Series is a real-valued time series sampled at constant rate with discrete
// timestamps, exactly as defined in Section 2 of the paper:
// S = <s1, s2, ..., sn>.
type Series struct {
	// Values holds the observation at each timestamp.
	Values []float64
	// Label is an optional class label (the UCR datasets are classification
	// datasets; labels make nearest-neighbour ground truth meaningful).
	Label int
	// ID identifies the series within its dataset.
	ID int
}

// New returns a Series over a copy of values.
func New(values []float64) Series {
	v := make([]float64, len(values))
	copy(v, values)
	return Series{Values: v}
}

// Len returns the number of timestamps.
func (s Series) Len() int { return len(s.Values) }

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return Series{Values: v, Label: s.Label, ID: s.ID}
}

// At returns the value at timestamp i.
func (s Series) At(i int) float64 { return s.Values[i] }

// Mean returns the mean of the series values.
func (s Series) Mean() float64 { return stats.Mean(s.Values) }

// StdDev returns the population standard deviation of the series values.
func (s Series) StdDev() float64 { return stats.StdDevOf(s.Values) }

// String summarises the series.
func (s Series) String() string {
	return fmt.Sprintf("series(id=%d label=%d n=%d)", s.ID, s.Label, s.Len())
}

// Normalize returns the z-normalized copy of the series: zero mean and unit
// variance ("Where not specified otherwise, we assume normalized time series
// with zero mean and unit variance", Section 2). Constant series are shifted
// to zero but left unscaled, since their variance is zero.
func (s Series) Normalize() Series {
	out := s.Clone()
	NormalizeInPlace(out.Values)
	return out
}

// NormalizeInPlace z-normalizes values in place.
func NormalizeInPlace(values []float64) {
	if len(values) == 0 {
		return
	}
	mu := stats.Mean(values)
	sd := stats.StdDevOf(values)
	if sd == 0 || math.IsNaN(sd) {
		for i := range values {
			values[i] -= mu
		}
		return
	}
	for i := range values {
		values[i] = (values[i] - mu) / sd
	}
}

// Resample returns the series linearly resampled to n points, mapping the
// original domain [0, len-1] onto [0, n-1]. The paper's Figure 12 obtains
// series of lengths 50..1000 by "resampling the raw sequences".
func (s Series) Resample(n int) (Series, error) {
	if n < 1 {
		return Series{}, fmt.Errorf("timeseries: Resample: target length %d < 1", n)
	}
	if s.Len() == 0 {
		return Series{}, errors.New("timeseries: Resample: empty series")
	}
	out := Series{Values: make([]float64, n), Label: s.Label, ID: s.ID}
	if s.Len() == 1 {
		for i := range out.Values {
			out.Values[i] = s.Values[0]
		}
		return out, nil
	}
	if n == 1 {
		out.Values[0] = s.Values[0]
		return out, nil
	}
	scale := float64(s.Len()-1) / float64(n-1)
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		lo := int(math.Floor(pos))
		hi := lo + 1
		if hi >= s.Len() {
			out.Values[i] = s.Values[s.Len()-1]
			continue
		}
		f := pos - float64(lo)
		out.Values[i] = s.Values[lo]*(1-f) + s.Values[hi]*f
	}
	return out, nil
}

// Truncate returns the first n points of the series (or the series itself if
// it is shorter). Figure 4 uses Gun Point truncated to length 6.
func (s Series) Truncate(n int) Series {
	if n >= s.Len() {
		return s.Clone()
	}
	if n < 0 {
		n = 0
	}
	v := make([]float64, n)
	copy(v, s.Values[:n])
	return Series{Values: v, Label: s.Label, ID: s.ID}
}

// Dataset is a named collection of series, mirroring C = {S1, ..., SN} in
// the paper's problem definition.
type Dataset struct {
	Name   string
	Series []Series
}

// Len returns the number of series in the dataset.
func (d Dataset) Len() int { return len(d.Series) }

// AllValues returns every value of every series concatenated; used by the
// chi-square uniformity check of Section 4.1.1.
func (d Dataset) AllValues() []float64 {
	var out []float64
	for _, s := range d.Series {
		out = append(out, s.Values...)
	}
	return out
}

// Normalize z-normalizes every series in place and returns the dataset for
// chaining.
func (d Dataset) Normalize() Dataset {
	for i := range d.Series {
		NormalizeInPlace(d.Series[i].Values)
	}
	return d
}

// Truncated returns a copy with at most maxSeries series, each truncated to
// maxLen points (the Figure 4 restricted setting).
func (d Dataset) Truncated(maxSeries, maxLen int) Dataset {
	n := maxSeries
	if n > len(d.Series) {
		n = len(d.Series)
	}
	out := Dataset{Name: d.Name + "-truncated", Series: make([]Series, n)}
	for i := 0; i < n; i++ {
		out.Series[i] = d.Series[i].Truncate(maxLen)
		out.Series[i].ID = i
	}
	return out
}

// Resampled returns a copy with every series resampled to length n.
func (d Dataset) Resampled(n int) (Dataset, error) {
	out := Dataset{Name: d.Name, Series: make([]Series, len(d.Series))}
	for i, s := range d.Series {
		r, err := s.Resample(n)
		if err != nil {
			return Dataset{}, fmt.Errorf("timeseries: resampling series %d of %s: %w", s.ID, d.Name, err)
		}
		out.Series[i] = r
	}
	return out, nil
}
