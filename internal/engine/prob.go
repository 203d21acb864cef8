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
// proven so far. The steps, the cut and the collector are the ones every
// kind shares (scan.go, bound.go); this file holds the two measures'
// cascades.
//
// Pruning is measure-native and exact:
//
//   - MUNICH walks a bound hierarchy — the exact bounding-interval prune
//     (the candidate's intervals stored by the corpus at insert, the query's
//     computed once per request, prepared.iv), the moment bracket
//     (munich.Options.MomentBracket), which rejects below the cut and, for
//     probrange, accepts at or above tau, then a per-timestamp sample-pair
//     probability bound when the refine step is exact. The bracket bounds
//     the total squared distance on each side by the least of Cantelli's,
//     Bennett's and the Berry–Esseen bound, from one pass over the sample
//     pairs (mean, variance, third absolute moment, the terms' ranges),
//     widened by (n/2 + 1) bins: each convolution step rounds a
//     materialisation's bin by at most half a bin, so it holds against the
//     binned estimate the refine would return. Over the benchmark's six
//     MUNICH probrange queries at tau 0.1 it leaves 42 refines where
//     Cantelli alone left 65. Survivors pay for a refine that itself
//     abandons early in the estimator's own arithmetic
//     (munich.ProbabilityCutoff; its convolution
//     runs each timestamp as shifted adds in the scalar definition's addend
//     order, so the estimate does not depend on which form ran). Every
//     shortcut either mirrors a prune the definitional scan also applies,
//     fixes the probability at exactly 0 or 1, or is proven against what the
//     refine step returns, so answers are bit-identical to the naive scan for
//     every estimator configuration.
//   - PROUD first pushes tier 0's bracket of the squared gap (prefilter.go)
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

// proudGap brackets the squared observation gap sum (q_t - c_t)^2 between
// the query and candidate ci without touching either series: tier 0's bound
// (raw) from below, proud.UnseenGap of the two energies from above. PROUD's
// moments are affine in the gap, so the bracket feeds the same decision the
// accumulation uses, as a prefix of zero timestamps.
func (e *Engine) proudGap(pq *prepared, ci int, raw float64) (lb2, ub2 float64) {
	lb2 = pq.lb2(raw)
	return lb2, max(proud.UnseenGap(pq.energy+e.energy.at(ci)[0], 0, len(pq.vec)), lb2)
}

// proudSkip is PROUD's prefilter stage: proudDecide on tier 0's bracket
// rejects candidate ci. A certain accept still runs the accumulation: the
// candidate is in the answer either way, and it is accounted as the scan
// without tier 0 accounts it.
func (r *run) proudSkip(ci int, cut float64) bool {
	pq := r.pq
	lb2, ub2 := r.e.proudGap(pq, ci, r.lbs[ci])
	return r.proudDecide(lb2, 4*pq.varD*lb2, len(pq.vec), ub2-lb2, cut) == proud.Reject
}

// proudMoments accumulates the distance moments of the query and candidate
// ci in exactly proud.Distance's order, timestamp by timestamp, and beside
// them the energy seen of both series. Between strides it polls done (nil =
// never), so even a single long accumulation stops promptly on cancellation,
// and — unless NoPrune — asks settled whether the moments of the prefix, the
// number of timestamps still to come and the bound on their squared gap
// (proud.UnseenGap: what the two series' energies leave once the energy
// seen is spent) already decide the candidate; a yes stops the accumulation
// with complete = false. A completed accumulation returns the same moments
// proud.Distance computes, bit for bit.
func (e *Engine) proudMoments(pq *prepared, ci int, done <-chan struct{}, settled func(mean, variance float64, rest int, gap float64) bool) (d proud.DistanceDist, complete bool, err error) {
	q, c := pq.vec, e.vecs.at(ci)
	n := len(q)
	varD := pq.varD
	energy := pq.energy + e.energy.at(ci)[0]
	var mean, variance, seen float64
	for t := 0; t < n; {
		stop := min(t+proudCheckStride, n)
		for ; t < stop; t++ {
			mu := q[t] - c[t]
			mean += mu*mu + varD
			variance += 2*varD*varD + 4*varD*mu*mu
			seen += q[t]*q[t] + c[t]*c[t]
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
		if !e.opts.NoPrune && settled(mean, variance, n-t, proud.UnseenGap(energy, seen, n)) {
			return d, false, nil
		}
	}
	return proud.DistanceDist{Mean: mean, Variance: variance}, true, nil
}

// proudDecide is PROUD's one decision, on the moments of a prefix, the
// number of timestamps still to come and the bound on their squared gap:
// the range predicate against eps_limit (KindProbRange), or the best
// possible probability against the k-th best, the floor -cut (KindProbTopK,
// which only ever rejects). It is taken first on tier 0's bracket as a
// prefix of zero timestamps, then on the moments of each stride.
func (r *run) proudDecide(mean, variance float64, rest int, gap, cut float64) proud.Decision {
	pq, eps := r.pq, r.req.Eps
	if r.req.Kind == KindProbRange {
		return proud.PrefixDecide(mean, variance, rest, pq.varD, gap, eps, r.epsLimit)
	}
	if !math.IsInf(cut, 1) && proud.ProbWithinUpper(mean, variance, rest, pq.varD, gap, eps) < -cut-probBoundMargin {
		return proud.Reject
	}
	return proud.Undecided
}

// proud is the rest of PROUD's cascade for candidate ci: the moments
// accumulated stride by stride until proudDecide settles them. A completed
// accumulation applies the same EpsNorm >= eps_limit test as proud.Matcher,
// or computes the exact probability.
func (r *run) proud(ci int, cut float64) (key float64, in bool, o outcome, err error) {
	verdict := proud.Undecided
	d, complete, err := r.e.proudMoments(r.pq, ci, r.done, func(mean, variance float64, rest int, gap float64) bool {
		verdict = r.proudDecide(mean, variance, rest, gap, cut)
		return verdict != proud.Undecided
	})
	probRange := r.req.Kind == KindProbRange
	switch {
	case err != nil:
		return 0, false, 0, err
	case complete && probRange:
		return 0, d.EpsNorm(r.req.Eps) >= r.epsLimit, completed, nil
	case complete:
		return -d.ProbWithin(r.req.Eps), true, completed, nil
	case probRange:
		return 0, verdict == proud.Accept, prefixResolved, nil
	}
	return 0, false, abandoned, nil
}

// munich is MUNICH's cascade for candidate ci: munichProb against the floor
// -cut (KindProbTopK), or with tau as both the exclusion cutoff and the
// acceptance threshold (KindProbRange): an excluded candidate has a
// probability provably below tau, so it rejects; one the moment bracket
// places at or above tau accepts; a resolved one compares exactly as the
// naive scan does.
func (r *run) munich(ci int, cut float64) (key float64, in bool, o outcome, err error) {
	floor, accept := -cut, math.Inf(1)
	if r.req.Kind == KindProbRange {
		floor, accept = r.req.Tau, r.req.Tau
	}
	p, ok, o, err := r.e.munichProb(r.pq, ci, r.req.Eps, floor, accept, r.done)
	if r.req.Kind == KindProbRange {
		return 0, ok && p >= accept, o, err
	}
	return -p, ok, o, err
}

// munichProb computes the match probability for one pair through the bound
// hierarchy: the exact bounding intervals (stored with the entry; they
// resolve the probability to exactly 0 or 1), the moment bracket
// (munich.Options.MomentBracket: Cantelli, Bennett and Berry–Esseen on
// either side of the estimate the refine would return, binned or exact), the
// sample-pair probability bound in the exact-refine regime (it bounds the
// exact probability, so it may only shortcut a refine step that would count
// exactly), then the refine itself with the estimator-native early
// rejection of munich.ProbabilityCutoff. ok = false means the candidate's
// probability is provably below cut without having been computed. A
// bracket at or above accept (+Inf = never; probrange passes tau, whose
// answer is a set of IDs) returns its lower end, which proves the predicate
// without the value. The bounding-interval prune runs in every arm because
// the naive scan itself applies it; the other devices are the engine's
// additions. done (nil = never) threads cooperative cancellation into the
// refine estimators.
func (e *Engine) munichProb(pq *prepared, ci int, eps, cut, accept float64, done <-chan struct{}) (float64, bool, outcome, error) {
	ent := e.snap.Entry(ci)
	dec, err := pq.iv.Prune(ent.Intervals, eps)
	if err != nil {
		return 0, false, 0, err
	}
	switch dec {
	case munich.PruneAccept:
		return 1, true, boundResolved, nil
	case munich.PruneReject:
		return 0, true, boundResolved, nil
	}
	x, y := pq.sample, *ent.Samples
	cutoff := math.Inf(-1)
	if !e.opts.NoPrune {
		if !math.IsInf(cut, -1) || !math.IsInf(accept, 1) {
			lo, hi := e.opts.MUNICH.MomentBracket(x, y, eps)
			switch {
			case hi < cut-probBoundMargin:
				return 0, false, boundResolved, nil
			case lo >= accept+probBoundMargin:
				return lo, true, boundResolved, nil
			}
		}
		if !math.IsInf(cut, -1) && munich.ExactFeasible(x, y) {
			up, err := munich.ProbUpperBound(x, y, pq.iv, ent.Intervals, eps)
			if err != nil {
				return 0, false, 0, err
			}
			if up < cut-probBoundMargin {
				return 0, false, boundResolved, nil
			}
		}
		cutoff = cut
	}
	p, complete, err := munich.ProbabilityCutoffCancel(x, y, eps, cutoff, e.opts.MUNICH, done)
	switch {
	case err != nil:
		return 0, false, 0, err
	case !complete: // estimate provably below cut in the estimator's arithmetic
		return 0, false, abandoned, nil
	}
	return p, true, completed, nil
}
