package engine

import (
	"fmt"
	"math"

	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
)

// The kernels of the probabilistic threshold queries (MeasurePROUD,
// MeasureMUNICH): the pruned counterparts of the definitional scans over
// proud.Matcher and munich.Intervals.Prune + munich.Probability.
// KindProbRange answers PRQ(q, C, eps, tau) — which candidates match with
// probability at least tau — and KindProbTopK ranks candidates by their
// match probability Pr(distance <= eps), against the k-th best probability
// proven so far. The scan loop, the cut and the collector are the ones every
// kind shares (scan.go, bound.go); this file holds what is PROUD's and
// MUNICH's own.
//
// Pruning is measure-native and exact:
//
//   - MUNICH walks a bound hierarchy — segment-envelope lower bound (built
//     from the per-series envelopes the corpus maintains), the exact
//     bounding-interval prune (the query's intervals computed once per
//     request, prepared.iv), a per-timestamp sample-pair probability bound
//     when the refine step is exact, then the moment bracket
//     (munich.Options.MomentBracket), which rejects below the cut and, for
//     probrange, accepts at or above tau. The bracket is a Cantelli bound on
//     the total squared distance, widened by (n/2 + 1) bins. Each convolution
//     step rounds a materialisation's bin by at most half a bin, so the
//     bracket holds against the binned estimate the refine would return, not
//     only against the exact probability. Survivors pay for a refine that
//     itself abandons early in the estimator's own arithmetic
//     (munich.ProbabilityCutoff; its convolution runs each timestamp as
//     shifted adds in the scalar definition's addend order, falling back to
//     that definition within munich's convShiftSlack of a bin edge, so the
//     estimate does not depend on which form ran). Every shortcut either mirrors
//     a prune the definitional scan also applies, fixes the probability at
//     exactly 0 or 1, or is proven against what the refine step returns, so
//     answers are bit-identical to the naive scan for every estimator
//     configuration.
//   - PROUD first pushes tier 0's bracket of the squared gap (tier0.go)
//     through the prefix bounds as a prefix of zero timestamps, then
//     accumulates the distance moments timestamp by timestamp (in exactly
//     proud.Distance's order) and stops as soon as the same bounds force
//     the predicate outcome or push the candidate's best possible
//     probability below the shared k-th best.
//
// All decisions either mirror the definitional arithmetic exactly or
// are backed by a conservative bound, so results match the naive scans
// bit for bit at every worker count.

// proudCheckStride is the number of timestamps accumulated between prefix
// bound checks: small enough that far candidates die after a fraction of
// the series, large enough that the bound arithmetic stays a rounding
// error next to the accumulation it saves.
const proudCheckStride = 16

// probBoundMargin is subtracted from probability-space pruning thresholds:
// the bounds are sound in exact arithmetic, and the margin (tiny next to
// any meaningful probability gap, enormous next to float64 rounding) keeps
// them sound under floating point so pruned answers stay bit-identical to
// the naive scan.
const probBoundMargin = 1e-9

// ProbMatch pairs a candidate index with its match probability
// Pr(distance(query, candidate) <= eps).
type ProbMatch struct {
	ID   int
	Prob float64
}

// checkTau validates the probability threshold against the measure's
// domain (mirroring the kernels': PROUD needs tau in (0, 1), MUNICH
// tau in (0, 1]) and returns PROUD's eps_limit, so the inverse-CDF work runs
// once per request, not per candidate.
func (e *Engine) checkTau(tau float64) (float64, error) {
	if e.opts.Measure == MeasurePROUD {
		lim, err := proud.EpsLimit(tau)
		if err != nil {
			return 0, fmt.Errorf("engine: %w", qerr.BadRequestf("%v", err))
		}
		return lim, nil
	}
	if math.IsNaN(tau) || tau <= 0 || tau > 1 {
		return 0, fmt.Errorf("engine: %w", qerr.BadRequestf("MUNICH tau %v outside (0, 1]", tau))
	}
	return 0, nil
}

// proudMoments accumulates the distance moments of the query and candidate
// ci in exactly proud.Distance's order, timestamp by timestamp. Between
// strides it polls done (nil = never), so even a single long accumulation
// stops promptly on cancellation, and — unless NoPrune — asks settled whether
// the moments of the prefix, the number of timestamps still to come and the
// bound on their squared gap already decide the candidate; a yes stops the
// accumulation with complete = false. A completed accumulation is counted
// and returns the same moments proud.Distance computes, bit for bit.
func (e *Engine) proudMoments(pq *prepared, ci int, done <-chan struct{}, settled func(mean, variance float64, rest int, gap float64) bool) (d proud.DistanceDist, complete bool, err error) {
	q, c := pq.vec, e.vecs.at(ci)
	n := len(q)
	varD := pq.varD
	var mean, variance float64
	for t := 0; t < n; {
		stop := min(t+proudCheckStride, n)
		for ; t < stop; t++ {
			mu := q[t] - c[t]
			mean += mu*mu + varD
			variance += 2*varD*varD + 4*varD*mu*mu
		}
		if t >= n {
			break
		}
		if done != nil {
			select {
			case <-done:
				return d, false, qerr.Cancelled(nil)
			default:
			}
		}
		if !e.opts.NoPrune && settled(mean, variance, n-t, 2*(pq.suffix[t]+e.suffix.at(ci)[t])) {
			return d, false, nil
		}
	}
	e.count(completed)
	return proud.DistanceDist{Mean: mean, Variance: variance}, true, nil
}

// proudAccept decides the PROUD range predicate for one pair, stopping as
// soon as the prefix bounds force the outcome. A completed accumulation
// applies the same EpsNorm >= epsLimit test as proud.Matcher.
func (e *Engine) proudAccept(pq *prepared, ci int, eps, epsLimit float64, done <-chan struct{}) (bool, error) {
	verdict := proud.Undecided
	d, complete, err := e.proudMoments(pq, ci, done, func(mean, variance float64, rest int, gap float64) bool {
		verdict = proud.PrefixDecide(mean, variance, rest, pq.varD, gap, eps, epsLimit)
		return verdict != proud.Undecided
	})
	if err != nil {
		return false, err
	}
	if complete {
		return d.EpsNorm(eps) >= epsLimit, nil
	}
	e.count(prefixResolved)
	return verdict == proud.Accept, nil
}

// proudProb computes the exact match probability for one pair, abandoning
// (ok = false) when the prefix bounds prove the probability cannot reach
// the current k-th best (cut; -Inf while there is none).
func (e *Engine) proudProb(pq *prepared, ci int, eps, cut float64, done <-chan struct{}) (float64, bool, error) {
	d, complete, err := e.proudMoments(pq, ci, done, func(mean, variance float64, rest int, gap float64) bool {
		return !math.IsInf(cut, -1) && proud.ProbWithinUpper(mean, variance, rest, pq.varD, gap, eps) < cut-probBoundMargin
	})
	if err != nil {
		return 0, false, err
	}
	if !complete {
		e.count(abandoned)
		return 0, false, nil
	}
	return d.ProbWithin(eps), true, nil
}

// munichAccept decides the MUNICH range predicate for one pair. It is
// munichProb with tau as the exclusion cutoff and as the acceptance
// threshold: an excluded candidate has a probability provably below tau, so
// it rejects; one the moment bracket places at or above tau accepts; a
// resolved one compares exactly as the naive scan does.
func (e *Engine) munichAccept(pq *prepared, ci int, eps, tau float64, done <-chan struct{}) (bool, error) {
	p, ok, err := e.munichProb(pq, ci, eps, tau, tau, done)
	return ok && p >= tau, err
}

// munichProb computes the match probability for one pair through the bound
// hierarchy: segment envelope, exact bounding intervals (both resolve the
// probability to exactly 0 or 1), the sample-pair probability bound in the
// exact-refine regime (it bounds the exact probability, so it may only
// shortcut a refine step that would count exactly), the moment bracket
// (munich.Options.MomentBracket: a Cantelli bound on either side of the
// estimate the refine would return, binned or exact), then the refine
// itself with the estimator-native early rejection of
// munich.ProbabilityCutoff. ok = false means the candidate's probability is
// provably below cut without having been computed. A bracket at or above
// accept (+Inf = never; probrange passes tau, whose answer is a set of IDs)
// returns its lower end, which proves the predicate without the value. The
// bounding-interval prune runs in every arm because the naive scan itself
// applies it; the other devices are the engine's additions. done (nil =
// never) threads cooperative cancellation into the refine estimators.
func (e *Engine) munichProb(pq *prepared, ci int, eps, cut, accept float64, done <-chan struct{}) (float64, bool, error) {
	ent := e.snap.Entry(ci)
	if !e.opts.NoPrune && munich.EnvelopeLowerBound(pq.env, ent.Env, e.snap.Spans()) > eps {
		// No materialisation is within eps: the probability is exactly 0.
		e.count(envelopePruned)
		return 0, true, nil
	}
	x, y := pq.sample, *ent.Samples
	dec, err := pq.iv.Prune(y, eps)
	if err != nil {
		return 0, false, err
	}
	switch dec {
	case munich.PruneAccept:
		e.count(boundResolved)
		return 1, true, nil
	case munich.PruneReject:
		e.count(boundResolved)
		return 0, true, nil
	}
	cutoff := math.Inf(-1)
	if !e.opts.NoPrune {
		if !math.IsInf(cut, -1) && e.opts.MUNICH.ExactFeasible(x, y) {
			up, err := munich.ProbUpperBound(x, y, eps)
			if err != nil {
				return 0, false, err
			}
			if up < cut-probBoundMargin {
				e.count(boundResolved)
				return 0, false, nil
			}
		}
		if !math.IsInf(cut, -1) || !math.IsInf(accept, 1) {
			lo, hi := e.opts.MUNICH.MomentBracket(x, y, eps)
			switch {
			case hi < cut-probBoundMargin:
				e.count(boundResolved)
				return 0, false, nil
			case lo >= accept+probBoundMargin:
				e.count(boundResolved)
				return lo, true, nil
			}
		}
		cutoff = cut
	}
	p, complete, err := munich.ProbabilityCutoffCancel(x, y, eps, cutoff, e.opts.MUNICH, done)
	if err != nil {
		return 0, false, err
	}
	if !complete { // estimate provably below cut in the estimator's arithmetic
		e.count(abandoned)
		return 0, false, nil
	}
	e.count(completed)
	return p, true, nil
}
