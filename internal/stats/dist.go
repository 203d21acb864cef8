package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a continuous univariate probability distribution. All error
// distributions used by the paper (normal, uniform, shifted exponential, and
// mixtures thereof) implement it.
//
// The techniques in the paper consume different slices of this interface:
// PROUD needs only Mean/StdDev; DUST needs the full PDF; the perturbation
// engine needs Sample.
type Dist interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns the cumulative probability P(X <= x).
	CDF(x float64) float64
	// Quantile returns the inverse CDF at probability p in [0, 1].
	Quantile(p float64) float64
	// Sample draws one value using the supplied random source.
	Sample(rng *rand.Rand) float64
	// Mean returns the expected value.
	Mean() float64
	// Variance returns the second central moment.
	Variance() float64
	// Support returns an interval [lo, hi] outside of which the density is
	// zero or negligible (used to bound numerical integration in DUST).
	Support() (lo, hi float64)
	// String identifies the distribution, with parameters.
	String() string
}

// Normal is the Gaussian distribution N(mu, sigma^2).
type Normal struct {
	Mu    float64
	Sigma float64
}

// NewNormal returns a Normal distribution with the given mean and standard
// deviation. It panics if sigma <= 0, which is always a programming error.
func NewNormal(mu, sigma float64) Normal {
	if sigma <= 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("stats: NewNormal: sigma must be positive, got %v", sigma))
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// PDF returns the Gaussian density at x.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	return NormalCDF((x - n.Mu) / n.Sigma)
}

// Quantile returns the inverse CDF at p.
func (n Normal) Quantile(p float64) float64 {
	z, err := NormalQuantile(p)
	if err != nil {
		return math.NaN()
	}
	return n.Mu + n.Sigma*z
}

// Sample draws one Gaussian variate.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// Mean returns mu.
func (n Normal) Mean() float64 { return n.Mu }

// Variance returns sigma^2.
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// Support returns mu +/- 10 sigma; the density outside is below 1e-22 and
// irrelevant for any integral in this package.
func (n Normal) Support() (float64, float64) {
	return n.Mu - 10*n.Sigma, n.Mu + 10*n.Sigma
}

func (n Normal) String() string {
	return fmt.Sprintf("normal(mu=%g, sigma=%g)", n.Mu, n.Sigma)
}

// Uniform is the continuous uniform distribution on [A, B].
//
// The paper parameterises the uniform error by its standard deviation sigma
// with zero mean; use NewUniformByStdDev for that construction
// (A = -sigma*sqrt(3), B = +sigma*sqrt(3)).
type Uniform struct {
	A float64
	B float64
}

// NewUniform returns the uniform distribution on [a, b]. It panics if b <= a.
func NewUniform(a, b float64) Uniform {
	if !(b > a) {
		panic(fmt.Sprintf("stats: NewUniform: need a < b, got [%v, %v]", a, b))
	}
	return Uniform{A: a, B: b}
}

// NewUniformByStdDev returns the zero-mean uniform distribution with the
// given standard deviation: U[-sigma*sqrt(3), +sigma*sqrt(3)].
func NewUniformByStdDev(sigma float64) Uniform {
	h := sigma * math.Sqrt(3)
	return NewUniform(-h, h)
}

// PDF returns 1/(B-A) inside the support, 0 outside.
func (u Uniform) PDF(x float64) float64 {
	if x < u.A || x > u.B {
		return 0
	}
	return 1 / (u.B - u.A)
}

// CDF returns P(X <= x).
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.A:
		return 0
	case x >= u.B:
		return 1
	default:
		return (x - u.A) / (u.B - u.A)
	}
}

// Quantile returns A + p*(B-A), clamped to the support.
func (u Uniform) Quantile(p float64) float64 {
	if p <= 0 {
		return u.A
	}
	if p >= 1 {
		return u.B
	}
	return u.A + p*(u.B-u.A)
}

// Sample draws one uniform variate.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.A + rng.Float64()*(u.B-u.A)
}

// Mean returns the midpoint of the support.
func (u Uniform) Mean() float64 { return (u.A + u.B) / 2 }

// Variance returns (B-A)^2 / 12.
func (u Uniform) Variance() float64 {
	w := u.B - u.A
	return w * w / 12
}

// Support returns [A, B].
func (u Uniform) Support() (float64, float64) { return u.A, u.B }

func (u Uniform) String() string {
	return fmt.Sprintf("uniform[%g, %g]", u.A, u.B)
}

// Exponential is a shifted exponential distribution: X = E - Shift where
// E ~ Exp(rate 1/Scale). The paper's "exponential error with zero mean and
// standard deviation sigma" is NewExponentialByStdDev(sigma), i.e.
// Scale = sigma and Shift = sigma.
type Exponential struct {
	Scale float64 // mean of the unshifted exponential (1/rate)
	Shift float64 // subtracted from every variate
}

// NewExponentialByStdDev returns a zero-mean exponential error distribution
// with the given standard deviation.
func NewExponentialByStdDev(sigma float64) Exponential {
	if sigma <= 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("stats: NewExponentialByStdDev: sigma must be positive, got %v", sigma))
	}
	return Exponential{Scale: sigma, Shift: sigma}
}

// PDF returns the density at x.
func (e Exponential) PDF(x float64) float64 {
	t := x + e.Shift
	if t < 0 {
		return 0
	}
	return math.Exp(-t/e.Scale) / e.Scale
}

// CDF returns P(X <= x).
func (e Exponential) CDF(x float64) float64 {
	t := x + e.Shift
	if t < 0 {
		return 0
	}
	return 1 - math.Exp(-t/e.Scale)
}

// Quantile returns the inverse CDF at p.
func (e Exponential) Quantile(p float64) float64 {
	if p <= 0 {
		return -e.Shift
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return -e.Scale*math.Log(1-p) - e.Shift
}

// Sample draws one variate.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return e.Scale*rng.ExpFloat64() - e.Shift
}

// Mean returns Scale - Shift (zero for the by-stddev construction).
func (e Exponential) Mean() float64 { return e.Scale - e.Shift }

// Variance returns Scale^2.
func (e Exponential) Variance() float64 { return e.Scale * e.Scale }

// Support returns [-Shift, -Shift + 40*Scale]; the upper tail mass beyond is
// below 1e-17.
func (e Exponential) Support() (float64, float64) {
	return -e.Shift, -e.Shift + 40*e.Scale
}

func (e Exponential) String() string {
	return fmt.Sprintf("exponential(scale=%g, shift=%g)", e.Scale, e.Shift)
}

// Mixture is a finite mixture of component distributions with the given
// weights. It is used for the paper's mixed-error experiments (Figures 8-10
// and 15-17) where 20% of the points carry one error distribution and 80%
// another.
type Mixture struct {
	Components []Dist
	Weights    []float64
}

// NewMixture returns a mixture distribution. Weights are normalised to sum
// to one. It panics on empty input, mismatched lengths, or non-positive
// total weight.
func NewMixture(components []Dist, weights []float64) Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("stats: NewMixture: need equal, non-zero numbers of components and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("stats: NewMixture: weights must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: NewMixture: total weight must be positive")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	comps := make([]Dist, len(components))
	copy(comps, components)
	return Mixture{Components: comps, Weights: norm}
}

// PDF returns the weighted sum of component densities.
func (m Mixture) PDF(x float64) float64 {
	var p float64
	for i, c := range m.Components {
		p += m.Weights[i] * c.PDF(x)
	}
	return p
}

// CDF returns the weighted sum of component CDFs.
func (m Mixture) CDF(x float64) float64 {
	var p float64
	for i, c := range m.Components {
		p += m.Weights[i] * c.CDF(x)
	}
	return p
}

// Quantile inverts the mixture CDF by bisection over the combined support.
func (m Mixture) Quantile(p float64) float64 {
	lo, hi := m.Support()
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if m.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Sample picks a component by weight and samples from it.
func (m Mixture) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		if u <= acc {
			return m.Components[i].Sample(rng)
		}
	}
	return m.Components[len(m.Components)-1].Sample(rng)
}

// Mean returns the weighted sum of component means.
func (m Mixture) Mean() float64 {
	var mu float64
	for i, c := range m.Components {
		mu += m.Weights[i] * c.Mean()
	}
	return mu
}

// Variance returns the law-of-total-variance mixture variance.
func (m Mixture) Variance() float64 {
	mu := m.Mean()
	var v float64
	for i, c := range m.Components {
		d := c.Mean() - mu
		v += m.Weights[i] * (c.Variance() + d*d)
	}
	return v
}

// Support returns the union of the component supports.
func (m Mixture) Support() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.Components {
		clo, chi := c.Support()
		lo = math.Min(lo, clo)
		hi = math.Max(hi, chi)
	}
	return lo, hi
}

// String identifies the mixture, including a fingerprint of its components
// and weights: consumers key caches (e.g. the DUST lookup tables) on the
// string form, so distinct mixtures must never collide.
func (m Mixture) String() string {
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for i, c := range m.Components {
		mix(c.String())
		mix(fmt.Sprintf("|%.17g;", m.Weights[i]))
	}
	return fmt.Sprintf("mixture(%d components, fp=%x)", len(m.Components), h)
}
