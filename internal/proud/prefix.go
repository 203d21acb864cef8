package proud

import (
	"fmt"
	"math"

	"uncertts/internal/stats"
)

// Prefix bounds: deciding the PROUD acceptance test before the distance
// moments are complete. A scanner accumulates the moments timestamp by
// timestamp (in exactly Distance's order, so a completed scan is bit-identical
// to the full computation) and periodically asks whether the predicate
// outcome is already forced. Every unseen timestamp adds at least varD to the
// mean, which bounds the eventual moments from below; with both series
// resident the scanner can also bound the unseen observation gap from above
// (UnseenGap), which unlocks certain accepts and, for epsLimit < 0 (tau < 1/2,
// PROUD's calibrated regime), certain rejects.

// Decision is the tri-state outcome of a prefix check.
type Decision int

const (
	// Undecided: the outcome still depends on unseen data.
	Undecided Decision = iota
	// Accept: the pair satisfies the probabilistic range predicate.
	Accept
	// Reject: the pair fails the predicate.
	Reject
)

func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	case Undecided:
		return "undecided"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Energy returns sum_t obs[t]^2. The corpus stores it per series and the
// engine computes an ad-hoc query's with this same function, so a resident
// and a forwarded copy of one query bound their candidates bit for bit alike.
func Energy(obs []float64) float64 {
	var e float64
	for t := len(obs) - 1; t >= 0; t-- {
		e += obs[t] * obs[t]
	}
	return e
}

// UnseenGap bounds from above the squared gap sum_{j >= t} (q_j - c_j)^2 of
// the timestamps a prefix of t (of n) has not read yet, given energy =
// Energy(q) + Energy(c) and seen = sum_{j < t} (q_j^2 + c_j^2), accumulated
// one timestamp's q_j^2 + c_j^2 at a time. Since (q - c)^2 <= 2q^2 + 2c^2, the
// gap is at most 2(energy - seen) in exact arithmetic; t = 0 (seen = 0)
// bounds the whole gap.
//
// The difference cancels: late in the series energy - seen is small next to
// the rounding errors of its two terms, so a relative widening cannot cover
// it. With u = 2^-53 and gamma_k = k u / (1 - k u), energy as computed is
// within gamma_{n+1} S of S = E_q + E_c (n rounded squares and n additions per
// series, one more addition), and seen within gamma_{t+1} P <= gamma_{n+1} S of
// its exact value. So the remaining energy R = S - P satisfies
//
//	R <= max(fl(energy - seen), 0) / (1 - u) + 2 gamma_{n+1} S,
//
// and after the doubling, the 1/(1 - u), S <= energy / (1 - gamma_{n+1}) and
// the two roundings of the final multiply-add, 2R is below the returned value
// once the absolute slack is 6 (n + 2) u times energy: the terms above sum to
// about (4n + 8) u times it while (n + 2) u <= 1/100, i.e. for any series
// shorter than 10^13. The slack is ~8.7e-14 of the energy at n = 128, too
// small to move any PROUD candidate count on the repository benchmark's
// corpus. Energies that overflow make the bound +Inf or NaN, under which
// neither PrefixDecide nor ProbWithinUpper decides or prunes anything the
// exact bound would not. The analysis assumes no square underflows.
func UnseenGap(energy, seen float64, n int) float64 {
	return 2*max(energy-seen, 0) + 6*float64(n+2)*unitRoundoff*energy
}

// unitRoundoff is u = 2^-53, the relative rounding error of one float64
// operation.
const unitRoundoff = 1.0 / (1 << 53)

// momentBounds returns conservative bounds on the eventual distance moments
// given the prefix accumulation, the number of unseen timestamps, the
// per-timestamp error variance sum varD, and an upper bound maxGapEnergy on
// the unseen squared-gap energy (+Inf when unknown). The bounds are widened
// by a relative slack so that floating-point drift between this closed-form
// arithmetic and the term-by-term accumulation of the full scan can never
// flip a "certain" decision away from what the completed scan would return.
func momentBounds(mean, variance float64, remaining int, varD, maxGapEnergy float64) (loMean, hiMean, loVar, hiVar float64) {
	rem := float64(remaining)
	loMean = mean + rem*varD
	loVar = variance + rem*2*varD*varD
	hiMean = loMean + maxGapEnergy
	hiVar = loVar + 4*varD*maxGapEnergy
	const rel = 1e-12
	loMean -= rel * math.Abs(loMean)
	hiMean += rel * math.Abs(hiMean)
	loVar -= rel * loVar
	if loVar < 0 {
		loVar = 0
	}
	hiVar += rel * hiVar
	return loMean, hiMean, loVar, hiVar
}

// PrefixDecide returns the certain outcome of the PROUD acceptance test
// (EpsNorm(eps) >= epsLimit) given only a prefix of the accumulation, or
// Undecided when unseen data could still swing it. mean and variance are
// the moments accumulated so far (Distance's order), remaining the count of
// unseen timestamps, varD the per-timestamp error variance sum, and
// maxGapEnergy an upper bound on sum_{unseen} (q_j - c_j)^2 (UnseenGap) —
// +Inf when there is none, which leaves only the lower bounds: no certain
// accepts, and no certain rejects when epsLimit < 0.
//
// Soundness: the eventual mean lies in [loMean, hiMean] and the eventual
// variance in [loVar, hiVar]. The acceptance test eps^2 - E >= epsLimit*sd
// is monotone in each: reject is certain when even the friendliest
// completion (smallest E; smallest sd for epsLimit >= 0, largest sd for
// epsLimit < 0) fails, accept when even the harshest completion passes.
func PrefixDecide(mean, variance float64, remaining int, varD, maxGapEnergy, eps, epsLimit float64) Decision {
	loMean, hiMean, loVar, hiVar := momentBounds(mean, variance, remaining, varD, maxGapEnergy)
	eps2 := eps * eps
	if epsLimit >= 0 {
		if eps2-loMean < epsLimit*math.Sqrt(loVar) {
			return Reject
		}
		if eps2-hiMean >= epsLimit*math.Sqrt(hiVar) {
			return Accept
		}
		return Undecided
	}
	if eps2-loMean < epsLimit*math.Sqrt(hiVar) {
		return Reject
	}
	if eps2-hiMean >= epsLimit*math.Sqrt(loVar) {
		return Accept
	}
	return Undecided
}

// ProbWithinUpper returns an upper bound on the eventual Pr(dist^2 <=
// eps^2) from a prefix of the accumulation — the top-k pruning companion of
// PrefixDecide: a candidate whose bound falls below the k-th best match
// probability found so far cannot enter the answer. The bound maximises
// EpsNorm = (eps^2 - E)/sd over the feasible moment box (treating E and sd
// as independent, which only loosens it) and pushes the result through the
// normal CDF.
func ProbWithinUpper(mean, variance float64, remaining int, varD, maxGapEnergy, eps float64) float64 {
	loMean, _, loVar, hiVar := momentBounds(mean, variance, remaining, varD, maxGapEnergy)
	eps2 := eps * eps
	num := eps2 - loMean // largest feasible numerator
	var en float64
	switch {
	case num >= 0:
		sd := math.Sqrt(loVar)
		if sd == 0 {
			return 1 // point mass at or below eps^2 is feasible
		}
		en = num / sd
	default:
		sd := math.Sqrt(hiVar)
		if sd == 0 {
			return 0 // point mass certainly above eps^2
		}
		en = num / sd
	}
	return stats.NormalCDF(en)
}
