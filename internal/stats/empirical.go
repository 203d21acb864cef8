package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Empirical is a kernel density estimate built from observed samples, with
// a Gaussian kernel and Silverman's rule-of-thumb bandwidth. It bridges the
// paper's two uncertainty models: repeated observations (the MUNICH input)
// can be turned into a continuous error distribution, letting DUST operate
// with *estimated* rather than a-priori error knowledge.
type Empirical struct {
	samples   []float64 // sorted
	bandwidth float64
	mean      float64
	variance  float64
}

// NewEmpirical fits a KDE to the samples. At least two distinct samples are
// required (a single point has no spread to estimate). The bandwidth
// parameter overrides Silverman's rule when positive.
func NewEmpirical(samples []float64, bandwidth float64) (*Empirical, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("stats: NewEmpirical: need at least 2 samples, got %d", len(samples))
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)

	mean := Mean(sorted)
	variance := SampleVariance(sorted)
	if variance == 0 || math.IsNaN(variance) {
		return nil, fmt.Errorf("stats: NewEmpirical: samples have zero spread")
	}
	h := bandwidth
	if h <= 0 {
		// Silverman: h = 1.06 * min(sd, IQR/1.34) * n^(-1/5).
		sd := math.Sqrt(variance)
		iqr := Quantile(sorted, 0.75) - Quantile(sorted, 0.25)
		spread := sd
		if iqr > 0 && iqr/1.34 < spread {
			spread = iqr / 1.34
		}
		h = 1.06 * spread * math.Pow(float64(len(sorted)), -0.2)
		if h <= 0 {
			h = sd * 0.5
		}
	}
	return &Empirical{
		samples:   sorted,
		bandwidth: h,
		mean:      mean,
		variance:  variance + h*h, // KDE adds kernel variance
	}, nil
}

// N returns the number of fitted samples.
func (e *Empirical) N() int { return len(e.samples) }

// PDF returns the KDE density at x.
func (e *Empirical) PDF(x float64) float64 {
	var acc float64
	norm := 1 / (e.bandwidth * math.Sqrt(2*math.Pi))
	for _, s := range e.samples {
		z := (x - s) / e.bandwidth
		acc += math.Exp(-z * z / 2)
	}
	return acc * norm / float64(len(e.samples))
}

// CDF returns the KDE cumulative probability at x.
func (e *Empirical) CDF(x float64) float64 {
	var acc float64
	for _, s := range e.samples {
		acc += NormalCDF((x - s) / e.bandwidth)
	}
	return acc / float64(len(e.samples))
}

// Quantile inverts the CDF by bisection over the support.
func (e *Empirical) Quantile(p float64) float64 {
	lo, hi := e.Support()
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if e.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Sample draws one variate: pick a fitted sample, add kernel noise.
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	s := e.samples[rng.Intn(len(e.samples))]
	return s + rng.NormFloat64()*e.bandwidth
}

// Mean returns the sample mean (also the KDE mean).
func (e *Empirical) Mean() float64 { return e.mean }

// Variance returns the KDE variance: sample variance plus kernel variance.
func (e *Empirical) Variance() float64 { return e.variance }

// Support extends the sample range by five bandwidths on each side.
func (e *Empirical) Support() (float64, float64) {
	return e.samples[0] - 5*e.bandwidth, e.samples[len(e.samples)-1] + 5*e.bandwidth
}

// String identifies the estimate; it includes the fingerprint of the fitted
// samples so equal-data estimates share DUST lookup tables while different
// data does not.
func (e *Empirical) String() string {
	var h uint64 = 14695981039346656037
	mix := func(f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			h ^= bits & 0xff
			h *= 1099511628211
			bits >>= 8
		}
	}
	for _, s := range e.samples {
		mix(s)
	}
	mix(e.bandwidth)
	return fmt.Sprintf("empirical(n=%d, h=%.4g, fp=%x)", len(e.samples), e.bandwidth, h)
}
