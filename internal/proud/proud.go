// Package proud implements the PROUD probabilistic similarity matcher of
// Yeh et al. (EDBT 2009), as described in Section 2.2 of the paper.
//
// PROUD models each timestamp as a random variable and exploits the central
// limit theorem: the squared Euclidean distance between two uncertain series
// is a sum of many independent terms D_i^2, so it is approximately normal
// with mean Sum E[D_i^2] and variance Sum Var[D_i^2] (Equation 7). A
// probabilistic range query PRQ(Q, C, eps, tau) then reduces to one
// standard-normal quantile lookup (Equations 8-11):
//
//	accept Y  iff  eps_norm(X, Y) >= eps_limit,  where
//	eps_limit = Phi^-1(tau)
//	eps_norm  = (eps^2 - E[dist2]) / sqrt(Var[dist2])
//
// PROUD needs only the first two moments of the per-timestamp error — in
// the paper's setting a single constant error standard deviation — which is
// why it cannot exploit per-timestamp error variation (Figures 8-10).
package proud

import (
	"errors"
	"fmt"
	"math"

	"uncertts/internal/stats"
)

// ErrLengthMismatch is returned when query and candidate lengths differ.
var ErrLengthMismatch = errors.New("proud: series lengths differ")

// DistanceDist holds the normal approximation of the squared Euclidean
// distance between two uncertain series.
type DistanceDist struct {
	// Mean is E[distance^2].
	Mean float64
	// Variance is Var[distance^2].
	Variance float64
}

// Distance computes the normal approximation of the squared distance
// between two series of observations, given the error standard deviation
// the technique was told for each side. Following PROUD's own Gaussian
// treatment of D_i, the variance of D_i^2 uses the normal fourth-moment
// identity Var[D^2] = 2 s^4 + 4 s^2 mu^2 with mu = E[D_i], s^2 = Var[D_i].
func Distance(qObs, cObs []float64, qSigma, cSigma float64) (DistanceDist, error) {
	if len(qObs) != len(cObs) {
		return DistanceDist{}, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(qObs), len(cObs))
	}
	if qSigma < 0 || cSigma < 0 {
		return DistanceDist{}, fmt.Errorf("proud: negative sigma (query %v, candidate %v)", qSigma, cSigma)
	}
	varD := qSigma*qSigma + cSigma*cSigma
	var mean, variance float64
	for i := range qObs {
		mu := qObs[i] - cObs[i]
		mean += mu*mu + varD
		variance += 2*varD*varD + 4*varD*mu*mu
	}
	return DistanceDist{Mean: mean, Variance: variance}, nil
}

// EpsLimit returns Phi^-1(tau), the normalised acceptance threshold of
// Equation 8.
func EpsLimit(tau float64) (float64, error) {
	if tau <= 0 || tau >= 1 {
		return 0, fmt.Errorf("proud: tau %v outside (0, 1)", tau)
	}
	return stats.NormalQuantile(tau)
}

// EpsNorm returns the normalised epsilon of Equation 9 for a (non-squared)
// distance threshold eps.
func (d DistanceDist) EpsNorm(eps float64) float64 {
	sd := math.Sqrt(d.Variance)
	if sd == 0 {
		// Certain series: the predicate is deterministic. Signed infinity
		// encodes accept/reject for any tau.
		if eps*eps >= d.Mean {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return (eps*eps - d.Mean) / sd
}

// ProbWithin returns Pr(distance^2 <= eps^2) under the normal approximation.
func (d DistanceDist) ProbWithin(eps float64) float64 {
	en := d.EpsNorm(eps)
	if math.IsInf(en, 1) {
		return 1
	}
	if math.IsInf(en, -1) {
		return 0
	}
	return stats.NormalCDF(en)
}

// Matcher answers probabilistic range queries with PROUD's knowledge model:
// one observation per timestamp and a single constant error standard
// deviation per series ("PROUD assumes that the standard deviation of the
// uncertainty error remains constant across all timestamps", Section 3.1).
type Matcher struct {
	// Eps is the Euclidean distance threshold.
	Eps float64
	// Tau is the probability threshold in (0, 1).
	Tau float64
	// QuerySigma and CandSigma are the constant error standard deviations
	// PROUD is told for the query and the candidates.
	QuerySigma float64
	CandSigma  float64
}

// Matches applies Equations 8-11 to the observation vectors.
func (m Matcher) Matches(qObs, cObs []float64) (bool, error) {
	d, err := Distance(qObs, cObs, m.QuerySigma, m.CandSigma)
	if err != nil {
		return false, err
	}
	limit, err := EpsLimit(m.Tau)
	if err != nil {
		return false, err
	}
	return d.EpsNorm(m.Eps) >= limit, nil
}
