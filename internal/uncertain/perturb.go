package uncertain

import (
	"fmt"
	"math"
	"math/rand"

	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
)

// ErrorFamily enumerates the error distribution families used throughout the
// paper's evaluation: uniform, normal and exponential, all zero mean.
type ErrorFamily int

const (
	// Normal is the Gaussian error family.
	Normal ErrorFamily = iota
	// Uniform is the zero-mean uniform error family.
	Uniform
	// Exponential is the zero-mean (shifted) exponential error family.
	Exponential
)

// String returns the family name as used in the paper's figure legends.
func (f ErrorFamily) String() string {
	switch f {
	case Normal:
		return "normal"
	case Uniform:
		return "uniform"
	case Exponential:
		return "exponential"
	default:
		return fmt.Sprintf("ErrorFamily(%d)", int(f))
	}
}

// AllErrorFamilies lists the three families in the paper's presentation
// order for the multi-panel figures.
func AllErrorFamilies() []ErrorFamily { return []ErrorFamily{Normal, Uniform, Exponential} }

// Make returns the zero-mean error distribution of the family with the given
// standard deviation.
func (f ErrorFamily) Make(sigma float64) stats.Dist {
	switch f {
	case Normal:
		return stats.NewNormal(0, sigma)
	case Uniform:
		return stats.NewUniformByStdDev(sigma)
	case Exponential:
		return stats.NewExponentialByStdDev(sigma)
	default:
		panic(fmt.Sprintf("uncertain: unknown error family %d", int(f)))
	}
}

// Perturber turns exact ground-truth series into uncertain series. It fixes
// an assignment of error distributions to timestamps and can then emit both
// the PDF model (for PROUD/DUST/UMA/UEMA) and the sample model (for MUNICH)
// with *consistent* uncertainty, so all techniques face the same corrupted
// data in an experiment.
type Perturber struct {
	// Dists[i] is the error distribution applied at timestamp i. If a series
	// is longer than Dists, the assignment repeats cyclically; experiments
	// always construct Dists at full series length.
	Dists []stats.Dist
	// Seed drives every random draw, making perturbation reproducible.
	Seed int64
	// Rho, when non-zero, makes consecutive errors AR(1)-correlated:
	// e_i = Rho*e_{i-1} + sqrt(1-Rho^2)*xi_i with xi_i drawn from Dists[i].
	// All techniques in the paper assume independent errors; a correlated
	// perturber probes what happens when that assumption breaks (the
	// "temporal correlations" direction of the paper's conclusions).
	// For Gaussian errors the marginal standard deviation is preserved
	// exactly; for other families approximately. Must be in (-1, 1).
	Rho float64
}

// NewConstantPerturber perturbs every timestamp with the same zero-mean
// error distribution of the given family and standard deviation — the
// setting of Figures 4-7.
func NewConstantPerturber(family ErrorFamily, sigma float64, n int, seed int64) (*Perturber, error) {
	if n <= 0 {
		return nil, fmt.Errorf("uncertain: NewConstantPerturber: series length %d must be positive", n)
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("uncertain: NewConstantPerturber: sigma %v must be positive", sigma)
	}
	d := family.Make(sigma)
	dists := make([]stats.Dist, n)
	for i := range dists {
		dists[i] = d
	}
	return &Perturber{Dists: dists, Seed: seed}, nil
}

// NewAR1Perturber returns a constant-sigma perturber whose consecutive
// errors are AR(1)-correlated with coefficient rho in (-1, 1). rho = 0
// degenerates to NewConstantPerturber.
func NewAR1Perturber(family ErrorFamily, sigma, rho float64, n int, seed int64) (*Perturber, error) {
	if rho <= -1 || rho >= 1 || math.IsNaN(rho) {
		return nil, fmt.Errorf("uncertain: NewAR1Perturber: rho %v outside (-1, 1)", rho)
	}
	p, err := NewConstantPerturber(family, sigma, n, seed)
	if err != nil {
		return nil, err
	}
	p.Rho = rho
	return p, nil
}

// MixedSigmaSpec describes the paper's mixed-error settings: Fraction of the
// timestamps get error stddev SigmaHigh, the rest SigmaLow (Figures 8-10:
// 20% with sigma 1.0, 80% with sigma 0.4).
type MixedSigmaSpec struct {
	Fraction  float64 // fraction of timestamps with the high sigma
	SigmaHigh float64
	SigmaLow  float64
	// Families lists the candidate families. With one element every
	// timestamp uses that family; with several, each perturbed timestamp
	// draws its family uniformly (the Figure 9 setting).
	Families []ErrorFamily
}

// NewMixedPerturber builds a perturber for the mixed-sigma settings. The
// choice of which timestamps carry the high sigma (and which family each
// timestamp uses) is drawn once from seed and then fixed.
func NewMixedPerturber(spec MixedSigmaSpec, n int, seed int64) (*Perturber, error) {
	if n <= 0 {
		return nil, fmt.Errorf("uncertain: NewMixedPerturber: series length %d must be positive", n)
	}
	if spec.Fraction < 0 || spec.Fraction > 1 {
		return nil, fmt.Errorf("uncertain: NewMixedPerturber: fraction %v outside [0, 1]", spec.Fraction)
	}
	if spec.SigmaHigh <= 0 || spec.SigmaLow <= 0 {
		return nil, fmt.Errorf("uncertain: NewMixedPerturber: sigmas must be positive, got high=%v low=%v", spec.SigmaHigh, spec.SigmaLow)
	}
	if len(spec.Families) == 0 {
		return nil, fmt.Errorf("uncertain: NewMixedPerturber: need at least one error family")
	}
	rng := stats.SplitRand(seed, 0x5eed)
	dists := make([]stats.Dist, n)
	// Choose exactly round(Fraction*n) high-sigma positions, like the paper's
	// "20% of the values".
	high := int(spec.Fraction*float64(n) + 0.5)
	perm := rng.Perm(n)
	isHigh := make([]bool, n)
	for _, idx := range perm[:high] {
		isHigh[idx] = true
	}
	for i := 0; i < n; i++ {
		family := spec.Families[rng.Intn(len(spec.Families))]
		sigma := spec.SigmaLow
		if isHigh[i] {
			sigma = spec.SigmaHigh
		}
		dists[i] = family.Make(sigma)
	}
	return &Perturber{Dists: dists, Seed: seed}, nil
}

// distAt returns the error distribution for timestamp i.
func (p *Perturber) distAt(i int) stats.Dist {
	return p.Dists[i%len(p.Dists)]
}

// rngFor derives the deterministic stream for one series, so perturbing
// series k is reproducible regardless of the order series are processed in.
func (p *Perturber) rngFor(seriesID int, stream int64) *rand.Rand {
	return stats.SplitRand(p.Seed, int64(seriesID)*1000003+stream)
}

// PerturbPDF returns the PDF-model uncertain version of s: one noisy
// observation per timestamp plus the (known) error distribution.
func (p *Perturber) PerturbPDF(s timeseries.Series) PDFSeries {
	rng := p.rngFor(s.ID, 1)
	obs := make([]float64, s.Len())
	errs := make([]stats.Dist, s.Len())
	var prev float64
	scale := math.Sqrt(1 - p.Rho*p.Rho)
	for i, v := range s.Values {
		d := p.distAt(i)
		e := d.Sample(rng)
		if p.Rho != 0 && i > 0 {
			e = p.Rho*prev + scale*e
		}
		prev = e
		obs[i] = v + e
		errs[i] = d
	}
	return PDFSeries{Observations: obs, Errors: errs, Label: s.Label, ID: s.ID}
}

// PerturbSamples returns the sample-model uncertain version of s with
// samplesPerTS repeated observations per timestamp (the MUNICH input).
func (p *Perturber) PerturbSamples(s timeseries.Series, samplesPerTS int) (SampleSeries, error) {
	if samplesPerTS < 1 {
		return SampleSeries{}, fmt.Errorf("uncertain: PerturbSamples: need at least 1 sample per timestamp, got %d", samplesPerTS)
	}
	rng := p.rngFor(s.ID, 2)
	samples := make([][]float64, s.Len())
	for i, v := range s.Values {
		d := p.distAt(i)
		row := make([]float64, samplesPerTS)
		for j := range row {
			row[j] = v + d.Sample(rng)
		}
		samples[i] = row
	}
	return SampleSeries{Samples: samples, Label: s.Label, ID: s.ID}, nil
}

// ReportedDists returns the per-timestamp error distributions a technique is
// *told* about. By default this is the truth; WithMisreportedSigma builds the
// Figure 10 scenario where the technique is told a wrong constant sigma.
func (p *Perturber) ReportedDists(n int) []stats.Dist {
	out := make([]stats.Dist, n)
	for i := range out {
		out[i] = p.distAt(i)
	}
	return out
}

// MisreportSigma returns per-timestamp distributions that (wrongly) claim
// the error is `family` with constant stddev sigma, regardless of what the
// perturber actually applied. Figures 8-10 use this to model techniques
// operating with inaccurate a-priori knowledge.
func MisreportSigma(family ErrorFamily, sigma float64, n int) []stats.Dist {
	d := family.Make(sigma)
	out := make([]stats.Dist, n)
	for i := range out {
		out[i] = d
	}
	return out
}
