package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divides by n), or NaN for
// empty input. The paper z-normalises series with the population convention.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	mu := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - mu
		acc += d * d
	}
	return acc / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (divides by n-1), or
// NaN for fewer than two observations.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	mu := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - mu
		acc += d * d
	}
	return acc / float64(len(xs)-1)
}

// StdDevOf returns the population standard deviation of xs.
func StdDevOf(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest element of xs. It returns
// (+Inf, -Inf) for empty input so that the result folds correctly.
func MinMax(xs []float64) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// CI is a two-sided confidence interval around a mean.
type CI struct {
	Mean  float64
	Lower float64
	Upper float64
	Level float64 // e.g. 0.95
}

// HalfWidth returns half the interval width.
func (c CI) HalfWidth() float64 { return (c.Upper - c.Lower) / 2 }

// MeanCI returns the two-sided confidence interval for the mean of xs at the
// given level (e.g. 0.95), using the Student-t critical value. The paper
// reports 95% confidence intervals on every plotted average.
//
// With fewer than two observations the interval degenerates to the point
// estimate.
func MeanCI(xs []float64, level float64) CI {
	mu := Mean(xs)
	n := len(xs)
	if n < 2 || level <= 0 || level >= 1 {
		return CI{Mean: mu, Lower: mu, Upper: mu, Level: level}
	}
	se := math.Sqrt(SampleVariance(xs) / float64(n))
	t, err := StudentTQuantile(0.5+level/2, float64(n-1))
	if err != nil || math.IsNaN(t) {
		return CI{Mean: mu, Lower: mu, Upper: mu, Level: level}
	}
	return CI{Mean: mu, Lower: mu - t*se, Upper: mu + t*se, Level: level}
}

// Histogram is a fixed-width binning of observations over [Lo, Hi].
// Out-of-range observations are clamped into the edge bins so that counts
// always sum to the number of observations.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram returns a histogram with bins equal-width bins over [lo, hi].
// It panics if bins < 1 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 || !(hi > lo) {
		panic("stats: NewHistogram: need bins >= 1 and lo < hi")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	idx := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.N++
}

// AddAll records every element of xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}
