// Package munich implements the probabilistic similarity matcher of Aßfalg
// et al. (SSDBM 2009), which the paper calls MUNICH (Section 2.1).
//
// MUNICH models an uncertain series by repeated observations per timestamp.
// Conceptually, the two series are materialised into every possible certain
// series (one observation picked per timestamp), the Lp distance is computed
// for every combination, and
//
//	Pr(distance(X, Y) <= eps) = |{d in dists(X,Y) : d <= eps}| / |dists(X,Y)|
//
// The naive materialisation has |dists| = sx^n * sy^n elements and is
// infeasible; this package computes the count without materialising:
//
//   - exact, via meet-in-the-middle over the per-timestamp squared-difference
//     multisets (the distance is a sum of independent per-timestamp terms, so
//     combinations factor into two halves that are enumerated and merged);
//   - approximate, via histogram convolution of the per-timestamp multisets,
//     with resolution controlled by the bin count. This is where a served
//     refine spends its time (128 timestamps x 9 sample pairs over 4096
//     bins), so each step carries only the bins that hold mass and can still
//     arrive at or below eps^2, and runs as shifted adds: a squared
//     difference moves every bin by the same number of bins unless it sits
//     within a few ulps (convShiftSlack) of a bin edge, and adding the scaled
//     window at each difference's shift, largest shift first — every shift in
//     one pass over the bins they all reach (addTaps, SSE2 on amd64), one
//     shift at a time at the edges — hands each bin its addends in the order
//     of the bin-by-bin definition: the scalar loop kept beside it, which the
//     rare edge case still runs, so the estimate is that loop's bit for bit.
//     Scratch comes from a pool.
//
// A pair is counted exactly when both halves of the split enumerate within a
// fixed cap (ExactFeasible), and convolved otherwise.
//
// Upper/lower distance bounds from the per-timestamp minimal bounding
// intervals provide the pruning step of the original paper: a candidate
// whose upper bound is within eps is accepted without counting, one whose
// lower bound exceeds eps is rejected without counting. A series' intervals
// are read off its samples once (BoundingIntervals; a corpus stores them at
// insert), so the prune reads flat columns, and Intervals.Prune stops
// summing the lower bound once it passes eps, deciding exactly as the whole
// sums would. Between the prune and the count sits Options.MomentBracket:
// the total squared distance is a sum of independent per-timestamp terms,
// so one pass over the sample pairs for its mean, variance, third absolute
// moment and the terms' ranges puts a bracket on the estimate the count
// would return — on each side the least of Cantelli's, Bennett's and the
// Berry–Esseen bound (Shevtsova's constant 0.5600), widened by the
// convolution's own discretisation and taken to the conservative side of
// every rounding.
package munich

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// maxExactCombos caps each half of the exact meet-in-the-middle count: a
// pair whose halves both enumerate within it is counted exactly, any other
// pair convolves.
const maxExactCombos = 1 << 21

// defaultBins is the convolution's histogram resolution when Options.Bins
// is not positive.
const defaultBins = 4096

// Options configures probability estimation.
type Options struct {
	// Bins is the histogram resolution of the convolution (default 4096).
	Bins int
}

func (o Options) bins() int {
	if o.Bins <= 0 {
		return defaultBins
	}
	return o.Bins
}

// Probability returns Pr(distance(X, Y) <= eps) under the MUNICH semantics.
func Probability(x, y uncertain.SampleSeries, eps float64, opts Options) (float64, error) {
	p, _, err := ProbabilityCutoff(x, y, eps, math.Inf(-1), opts)
	return p, err
}

// ProbabilityCutoff is Probability with an estimator-native early
// rejection: the computation may stop — returning complete = false — as
// soon as the final estimate is provably below cutoff in the estimator's
// own arithmetic (the convolution CDF at eps^2 only decreases as further
// timestamps convolve in). A completed call returns exactly Probability's
// value, so a threshold test against cutoff decides identically either
// way; cutoff = -Inf never abandons. The exact count has no prefix
// structure (meet-in-the-middle) and always completes.
func ProbabilityCutoff(x, y uncertain.SampleSeries, eps, cutoff float64, opts Options) (float64, bool, error) {
	return ProbabilityCutoffCancel(x, y, eps, cutoff, opts, nil)
}

// ProbabilityCutoffCancel is ProbabilityCutoff with cooperative
// cancellation: the combination counting polls done between convolution
// steps and exact-enumeration blocks and, once done is closed, returns an
// error wrapping qerr.ErrCancelled — so even a single slow refine stops
// within a sliver of its runtime instead of holding its executor shard. A
// nil done never cancels and computes exactly ProbabilityCutoff.
func ProbabilityCutoffCancel(x, y uncertain.SampleSeries, eps, cutoff float64, opts Options, done <-chan struct{}) (float64, bool, error) {
	if err := x.Validate(); err != nil {
		return 0, false, err
	}
	if err := y.Validate(); err != nil {
		return 0, false, err
	}
	if x.Len() != y.Len() {
		return 0, false, fmt.Errorf("munich: series lengths differ: %d vs %d", x.Len(), y.Len())
	}
	if eps < 0 {
		return 0, true, nil
	}
	if !exactFits(x, y) {
		p, complete, _, err := convolutionProbability(x, y, eps, cutoff, opts.bins(), done)
		return p, complete, err
	}
	p, err := exactProbability(x, y, eps, done)
	return p, err == nil, err
}

// cancelled polls a done channel without blocking; a nil channel never
// reports cancellation.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ExactFeasible reports whether both halves of the meet-in-the-middle count
// fit the combination cap for this pair — i.e. whether Probability resolves
// it exactly rather than by convolution. Callers use it to decide whether a
// bound proven against the exact probability also bounds the estimate the
// refine step returns.
func ExactFeasible(x, y uncertain.SampleSeries) bool {
	return x.Len() == y.Len() && exactFits(x, y)
}

// exactFits reports whether both halves of the meet-in-the-middle split
// enumerate within maxExactCombos sums.
func exactFits(x, y uncertain.SampleSeries) bool {
	n := x.Len()
	half := func(lo, hi int) bool {
		size := 1
		for i := lo; i < hi; i++ {
			size *= len(x.Samples[i]) * len(y.Samples[i])
			if size > maxExactCombos || size <= 0 {
				return false
			}
		}
		return true
	}
	return half(0, n/2) && half(n/2, n)
}

// minGap is the minimal possible |a - b| for a in [alo, ahi] and b in
// [blo, bhi]: the distance between the intervals, 0 when they overlap.
func minGap(alo, ahi, blo, bhi float64) float64 {
	switch {
	case alo > bhi:
		return alo - bhi
	case blo > ahi:
		return blo - ahi
	}
	return 0
}

// Intervals are the per-timestamp minimal bounding intervals of a sample
// series: Lo[t] and Hi[t] are its smallest and largest observation at t. A
// corpus keeps them for every sampled series from insert on and a query
// computes its own once, so the filter step reads four flat columns instead
// of walking two sample models.
type Intervals struct{ Lo, Hi []float64 }

// BoundingIntervals reads the intervals off a series, into one allocation of
// 2n floats.
func BoundingIntervals(s uncertain.SampleSeries) Intervals {
	n := s.Len()
	buf := make([]float64, 2*n)
	iv := Intervals{Lo: buf[:n:n], Hi: buf[n:]}
	for i := range iv.Lo {
		iv.Lo[i], iv.Hi[i] = s.MinMaxAt(i)
	}
	return iv
}

// sameLen reports a length mismatch between two series' intervals.
func (x Intervals) sameLen(y Intervals) error {
	if len(x.Lo) != len(y.Lo) || len(x.Hi) != len(x.Lo) || len(y.Hi) != len(y.Lo) {
		return fmt.Errorf("munich: series lengths differ: %d vs %d", len(x.Lo), len(y.Lo))
	}
	return nil
}

// maxGap is the maximal possible |a - b| for a in [alo, ahi] and b in
// [blo, bhi]. It is never below minGap of the same intervals, in floating
// point too: where minGap is a difference, maxGap's matching term is the
// same difference, negated. The builtin max is math.Max on these operands
// (NaN propagates, +0 beats -0) without the call.
func maxGap(alo, ahi, blo, bhi float64) float64 {
	return max(math.Abs(ahi-blo), math.Abs(bhi-alo))
}

// Bounds returns lower and upper bounds on every feasible Euclidean distance
// between materialisations of the series x and y were read off, derived from
// the per-timestamp minimal bounding intervals (the pruning device of the
// original paper).
func (x Intervals) Bounds(y Intervals) (lo, hi float64, err error) {
	if err := x.sameLen(y); err != nil {
		return 0, 0, err
	}
	var lo2, hi2 float64
	for i, xlo := range x.Lo {
		dmin := minGap(xlo, x.Hi[i], y.Lo[i], y.Hi[i])
		dmax := maxGap(xlo, x.Hi[i], y.Lo[i], y.Hi[i])
		lo2 += float64(dmin * dmin)
		hi2 += float64(dmax * dmax)
	}
	return math.Sqrt(lo2), math.Sqrt(hi2), nil
}

// ProbUpperBound returns a cheap, sound upper bound on Pr(distance(X, Y) <=
// eps) without enumerating combinations; xi and yi are the series' bounding
// intervals. For any timestamp t the total squared distance is at least
// d_t^2 plus the sum of the minimal squared gaps of every other timestamp, so
//
//	Pr(dist <= eps) <= Pr(d_t^2 <= eps^2 - sum_{j != t} dmin_j^2)
//
// and the right-hand side is the fraction of sample pairs at timestamp t
// within the residual budget — an O(sx*sy) count per timestamp, versus the
// full estimator's enumeration or convolution. The bound is the minimum
// over all timestamps. A range query can reject a candidate as soon as the
// bound falls below tau — but only when the refine step is exact (see
// ExactFeasible): the bound holds for the exact probability, not for a
// convolution estimate of it.
//
// It earns its place after the moment bracket in that exact regime, less
// as series grow. Over every ordered pair of 40 random walks of 6
// timestamps (3 samples each, spread 0.2, offsets up to 2; eps in {0.3, 1,
// 2, 4}, tau in {0.1, 0.5, 0.9}) it settled 64 of the 4752 pairs the
// intervals left open that the bracket did not; 16 of 3918 at 8
// timestamps, 2 of 2382 for 30 series of 10. A count over another eps and
// tau grid read 218 of 15198, 47 of 13422 and 3 of 7596 at the same shapes.
func ProbUpperBound(x, y uncertain.SampleSeries, xi, yi Intervals, eps float64) (float64, error) {
	if err := x.Validate(); err != nil {
		return 0, err
	}
	if err := y.Validate(); err != nil {
		return 0, err
	}
	n := x.Len()
	if y.Len() != n || len(xi.Lo) != n || xi.sameLen(yi) != nil {
		return 0, fmt.Errorf("munich: series lengths differ: %d vs %d timestamps, %d vs %d intervals", n, y.Len(), len(xi.Lo), len(yi.Lo))
	}
	if eps < 0 {
		return 0, nil
	}
	var lo2 float64
	for i, xlo := range xi.Lo {
		dmin := minGap(xlo, xi.Hi[i], yi.Lo[i], yi.Hi[i])
		lo2 += float64(dmin * dmin)
	}
	eps2 := eps * eps
	best := 1.0
	for t := 0; t < n; t++ {
		dmin := minGap(xi.Lo[t], xi.Hi[t], yi.Lo[t], yi.Hi[t])
		budget := eps2 - (lo2 - float64(dmin*dmin))
		xs, ys := x.Samples[t], y.Samples[t]
		within := 0
		for _, a := range xs {
			for _, b := range ys {
				d := a - b
				if d*d <= budget {
					within++
				}
			}
		}
		if p := float64(within) / float64(len(xs)*len(ys)); p < best {
			best = p
		}
		if best == 0 {
			break
		}
	}
	return best, nil
}

// PruneDecision classifies a candidate against a range predicate using only
// the distance bounds.
type PruneDecision int

const (
	// PruneUnknown: the bounds straddle eps; the probability must be counted.
	PruneUnknown PruneDecision = iota
	// PruneAccept: every materialisation is within eps (probability 1).
	PruneAccept
	// PruneReject: no materialisation is within eps (probability 0).
	PruneReject
)

// pruneStride is how many timestamps Prune sums between its reject checks.
const pruneStride = 16

// Prune applies the bounding-interval test to the candidate whose intervals
// are y: accept when Bounds' upper bound is within eps, reject when its lower
// bound exceeds eps. It sums the lower bound first and rejects at every
// pruneStride-th timestamp once the root of the partial sum exceeds eps, and
// sums the upper bound only for a survivor. That decides exactly as the two
// whole sums do: in floating point too, a partial sum of non-negative terms
// never exceeds the whole, sqrt is monotone, and the upper sum is never
// below the lower one (maxGap >= minGap term by term), so a pair rejected
// early is rejected, and never accepted, by the whole sums. The conversions
// keep every square a rounded product in both, on platforms that would
// fuse it into the sum.
func (x Intervals) Prune(y Intervals, eps float64) (PruneDecision, error) {
	if err := x.sameLen(y); err != nil {
		return PruneUnknown, err
	}
	n := len(x.Lo)
	xhi, ylo, yhi := x.Hi[:n], y.Lo[:n], y.Hi[:n]
	var lo2 float64
	for i, xlo := range x.Lo {
		// minGap without its branches, for intervals in order (lo <= hi, as
		// every series' are): at most one difference is above 0 (+Inf where
		// it overflows, never NaN), and as int64s the bits of floats above +0
		// order as the floats do, above 0, and the others' lie at or below 0.
		dmin := math.Float64frombits(uint64(max(int64(math.Float64bits(xlo-yhi[i])), int64(math.Float64bits(ylo[i]-xhi[i])), 0)))
		lo2 += float64(dmin * dmin)
		if i%pruneStride == pruneStride-1 && math.Sqrt(lo2) > eps {
			return PruneReject, nil
		}
	}
	if math.Sqrt(lo2) > eps {
		return PruneReject, nil
	}
	var hi2 float64
	for i, xlo := range x.Lo {
		dmax := maxGap(xlo, xhi[i], ylo[i], yhi[i])
		hi2 += float64(dmax * dmax)
	}
	if math.Sqrt(hi2) <= eps {
		return PruneAccept, nil
	}
	return PruneUnknown, nil
}

// squaredDiffMultiset returns the multiset of squared differences between
// the observations of x and y at timestamp i.
func squaredDiffMultiset(x, y uncertain.SampleSeries, i int) []float64 {
	xs, ys := x.Samples[i], y.Samples[i]
	return appendSquaredDiffs(make([]float64, 0, len(xs)*len(ys)), xs, ys)
}

// appendSquaredDiffs appends the squared differences of every sample pair,
// xs-major.
func appendSquaredDiffs(out, xs, ys []float64) []float64 {
	for _, a := range xs {
		for _, b := range ys {
			d := a - b
			out = append(out, d*d)
		}
	}
	return out
}

// exactProbability counts combinations with total squared distance <= eps^2
// using meet-in-the-middle. If the enumeration would exceed maxExactCombos
// per half it returns an error (ProbabilityCutoffCancel asks exactFits
// first).
func exactProbability(x, y uncertain.SampleSeries, eps float64, done <-chan struct{}) (float64, error) {
	if !exactFits(x, y) {
		return 0, fmt.Errorf("munich: exact enumeration exceeds cap %d per half", maxExactCombos)
	}
	n := x.Len()
	multisets := make([][]float64, n)
	for i := 0; i < n; i++ {
		multisets[i] = squaredDiffMultiset(x, y, i)
	}
	split := n / 2
	sumsA := enumerateSums(multisets[:split])
	sumsB := enumerateSums(multisets[split:])
	if cancelled(done) {
		return 0, qerr.Cancelled(nil)
	}
	sort.Float64s(sumsB)
	eps2 := eps * eps
	var count uint64
	for ai, a := range sumsA {
		if ai%4096 == 4095 && cancelled(done) {
			return 0, qerr.Cancelled(nil)
		}
		// Number of b with a + b <= eps^2.
		idx := sort.SearchFloat64s(sumsB, math.Nextafter(eps2-a, math.Inf(1)))
		count += uint64(idx)
	}
	total := uint64(len(sumsA)) * uint64(len(sumsB))
	if total == 0 {
		return 0, errors.New("munich: empty combination space")
	}
	return float64(count) / float64(total), nil
}

// enumerateSums returns every sum formed by picking one element from each
// multiset. An empty slice of multisets yields the single sum 0.
func enumerateSums(ms [][]float64) []float64 {
	sums := []float64{0}
	for _, m := range ms {
		next := make([]float64, 0, len(sums)*len(m))
		for _, s := range sums {
			for _, v := range m {
				next = append(next, s+v)
			}
		}
		sums = next
	}
	return sums
}

// convCutoffMargin guards the convolution early rejection against the few
// ulps by which the partial CDF readout can drift from the final one: the
// shift-right monotonicity argument is exact-arithmetic, and the margin —
// tiny next to any meaningful probability gap — keeps it sound under
// floating point.
const convCutoffMargin = 1e-9

// convReadStride is how many convolution steps run between early-rejection
// readouts. The test is sound after any step, so the stride trades how soon
// a doomed pair stops for how often the window is read. Over the benchmark
// corpus's six MUNICH queries (one worker, shared 2-vCPU box, eight
// interleaved rounds with the grouped shifted adds, which make the readout a
// larger share of a step) stride 2 took a median 1.13x stride 4's time,
// slower in 7 of 8 rounds, and stride 8 1.03x, within the noise; stride 8
// also moves the completed/abandoned split of those queries from 24/41 to
// 26/39. With the tap-by-tap step, a readout after every step cost ~11% more
// than one every 4th.
const convReadStride = 4

// binnedCDF reads the probability mass at or below eps2 off bins [from, to]
// of a histogram, interpolating the boundary bin uniformly — the readout
// shared by the final convolution answer and the early-rejection checks.
func binnedCDF(probs []float64, from, to int, width, eps2 float64) float64 {
	var acc float64
	for j := from; j <= to; j++ {
		p := probs[j]
		upper := (float64(j) + 1) * width
		if upper <= eps2 {
			acc += p
			continue
		}
		lower := float64(j) * width
		if lower < eps2 {
			// Partial bin: assume mass uniform within the bin.
			acc += p * (eps2 - lower) / width
		}
		break
	}
	if acc > 1 {
		acc = 1
	}
	return acc
}

// convBin is the bin the mass at the centre of bin j moves to when a squared
// difference v convolves in. It is monotone in j and in v in floating point
// (every operation is), which is what makes reachableBins and the [lo, hi]
// window of the convolution exact. The conversion keeps the product from
// fusing into the sum, so the look-ahead and the convolution loop round
// alike on every platform.
func convBin(j int, v, width float64, bins int) int {
	idx := int((float64((float64(j)+0.5)*width) + v) / width)
	if idx >= bins {
		idx = bins - 1
	}
	return idx
}

// reachableBins fills last — one entry per histogram after each of the
// len(mins)+1 steps (step 0 is the unit mass in bin 0) — with the highest
// bin whose mass can still arrive where binnedCDF reads at eps2: last[n] is
// the first bin whose upper edge lies beyond eps2, and last[s] the largest j
// whose minimal destination under timestamp s (its smallest squared
// difference, mins[s]) is within last[s+1] — -1 when there is none. Mass
// above last[s] can only land above last[s+1], so a convolution that drops
// it reads the same bins at the end.
func reachableBins(last []int, mins []float64, width, eps2 float64, bins int) {
	n := len(mins)
	last[n] = sort.Search(bins-1, func(j int) bool { return (float64(j)+1)*width > eps2 })
	for s := n - 1; s >= 0; s-- {
		j := last[s+1] // convBin(j, v) >= j for v >= 0
		for j >= 0 && convBin(j, mins[s], width, bins) > last[s+1] {
			j--
		}
		last[s] = j
	}
}

// convShiftSlack, times bins + v/width, is how close to a bin edge the
// fractional part of 0.5 + v/width may sit before the scalar index
// int(((j+0.5)*width + v)/width) stops being provably j + floor(0.5 +
// v/width) for every j. With u = 2^-53: the product, the sum and the quotient
// each err by at most u*(j + 0.5 + v/width) <= u*(bins + v/width), and
// binShifts' own fl(0.5 + fl(v/width)) by at most 2u*(v/width + 0.5) — 5u in
// all, taken as 8u (7e-12 at 4096 bins).
const convShiftSlack = 8 * 0x1p-53

// berryEsseenC0 is the constant of the Berry–Esseen bound for independent,
// non-identically distributed summands, sup_x |P(S <= x) - Phi((x-mu)/s)| <=
// C0 * sum_t E|X_t - mu_t|^3 / s^3, as Shevtsova (2010, "An improvement of
// convergence rate estimates in the Lyapunov theorem") proves it.
const berryEsseenC0 = 0.5600

// MomentBracket returns lo <= p <= hi for p = Probability(x, y, eps, o),
// without counting: the tightest of the brackets bracketSides derives. It
// allocates nothing.
func (o Options) MomentBracket(x, y uncertain.SampleSeries, eps float64) (lo, hi float64) {
	lo, hi = 0, 1
	for _, s := range o.bracketSides(x, y, eps) {
		lo, hi = max(lo, s[0]), min(hi, s[1])
	}
	return lo, hi
}

// The bounds bracketSides puts on either side of the estimate, in the order
// it returns them.
const (
	sideCantelli = iota
	sideBennett
	sideBerryEsseen
	numSides
)

// bracketSides returns, for each of Cantelli, Bennett and Berry–Esseen, the
// bracket [lo, hi] that bound alone puts on p = Probability(x, y, eps, o);
// [0, 1] where it does not apply. S, the total squared distance of a random
// materialisation, is a sum of n independent terms X_t, each uniform over the
// squared sample differences v at t. One O(n*s^2) pass (a two-pass mean per
// timestamp) gives its mean mu, variance s2 and third absolute central moment
// rho = sum_t E|X_t - mu_t|^3, and the ranges of its terms below and above
// their means, b- = max_t (mu_t - min v) and b+ = max_t (max v - mu_t). A
// domain the convolution would refuse gets the trivial [0, 1] throughout,
// which leaves that error to the refine.
//
// The bracket holds against the binned estimate, not only against the
// law of S. Take one materialisation. Step t moves its bin from J to
// floor(J + 1/2 + v_t/w) (the bin width w is maxSum/bins). Each step
// therefore adds to J - S/w a rounding error in (-1/2, 1/2], so
// |J_n - S/w| <= n/2 after n steps. The scalar index computation errs by at
// most 3u(bins + v_t/w) more per step, and since sum_t v_t/w <= 2*bins, the
// total stays under convShiftSlack*bins*(n+2). binnedCDF reads bins with
// j*w < eps^2, and reads fully every bin with (j+1)*w <= eps^2. With
// m = (n/2 + 1 + convShiftSlack*bins*(n+2))*w:
//
//	P(S <= eps^2 - m) <= p <= P(S < eps^2 + m)
//
// A clamp into the top bin only lowers J, which cannot break the left
// inequality. It cannot break the right one either: the top bin is read only
// when (bins-1)*w < eps^2, and then eps^2 + m > bins*w + (n/2)*w >= maxSum >= S
// (n/2 >= 1/2 covers the rounding of w), so the right side is 1.
// The exact estimator sits inside the same bracket a fortiori: its float sums
// err by far less than w. So hi = tail(mu - eps^2 - m, b-) and lo = 1 -
// tail(eps^2 - m - mu, b+), where tail(a, b) bounds P(Y >= a) for Y = mu - S
// or S - mu, a sum of independent zero-mean terms each at most b (MUNICH's
// model is all three bounds need):
//
//   - Cantelli, s2/(s2 + a^2), for a > 0;
//   - Bennett, exp(-(s2/b^2) h(ab/s2)) with h(x) = (1+x)ln(1+x) - x, for
//     a > 0 and b, s2 > 0;
//   - Berry–Esseen, Phi(-a/s) + C0*rho/s^3 (berryEsseenC0), for s > 0 and
//     any a.
//
// Rounding, u = 2^-53. Every input of a bound is taken to its conservative
// side. slack = 2(n + s^2 + 8)u bounds the relative error of every sum of
// the pass, and slack*(mu + eps^2 + maxSum) in m the rounding of a. The
// computed mean of timestamp t is within tol_t = 2(s^2 + 2)u*mean of the
// true one, so |v - mu_t| <= |fl(v - mean)|(1 + u) + tol_t: the pass adds
// tol_t to each deviation it cubes and to both ranges, and rho and the
// ranges take a factor 1 + slack. A two-pass variance about a computed mean
// only overestimates in exact arithmetic, so s+^2 = s2(1 + slack) is an
// upper bound, and taking off the mean errors, sum_t tol_t^2 <=
// (slack*mu)^2, leaves a lower one, s-^2 = s2(1 - slack) - (slack*mu)^2.
// Cantelli and Bennett grow with s2 and Bennett with b, so they read s+^2;
// Berry–Esseen reads s- in rho/s^3 and, in Phi(-a/s), s+ where a > 0 and s-
// elsewhere, the side on which Phi grows. h(x) subtracts terms of size up to
// x + h: a few ulps of error in either, and in x itself (h'(x) = ln(1+x), and
// x ln(1+x) <= x + h), move it by at most 8u(x + h), so Bennett's exponent
// takes h - 16u(x + h). Bennett runs only where a*b, b^2, x and s2/b^2 are
// normal floats, so no underflow inflates its exponent, and Berry–Esseen
// only where s-^3 is finite (one that underflows only inflates its term).
// What is left moves a bound by a few ulps: a relative rounding r of the
// exponent E moves exp(-E) by at most rE*exp(-E) <= r/e, of Phi's argument
// z moves Phi by |z|phi(z)r <= r/4, and exp, erfc and the divisions round a
// probability in [0, 1]. Those ulps, with the histogram's own mass rounding
// (a few ulps per addition), are left to the caller's margin.
func (o Options) bracketSides(x, y uncertain.SampleSeries, eps float64) (sides [numSides][2]float64) {
	sides = [numSides][2]float64{{0, 1}, {0, 1}, {0, 1}}
	n := x.Len()
	if n != y.Len() || eps < 0 {
		return sides
	}
	var mu, s2, rho, below, above, maxSum float64
	pairs := 0
	for i := 0; i < n; i++ {
		xs, ys := x.Samples[i], y.Samples[i]
		// v is +0 or above (NaN and -0 are no squares of a finite difference or
		// of its overflow), where a float's bits order as it does.
		sum, low, top := 0.0, math.Float64bits(math.Inf(1)), uint64(0)
		for _, a := range xs {
			for _, b := range ys {
				d := a - b
				v := float64(d * d) // the convolution's squared difference
				sum += v
				low, top = min(low, math.Float64bits(v)), max(top, math.Float64bits(v))
			}
		}
		k := len(xs) * len(ys)
		mean := sum / float64(k)
		tol := float64(2*(k+2)) * 0x1p-53 * mean
		var dev, cube float64
		for _, a := range xs {
			for _, b := range ys {
				d := a - b
				e := float64(d*d) - mean
				dev += e * e
				r := math.Abs(e) + tol
				cube += r * r * r
			}
		}
		mu += mean
		s2 += dev / float64(k)
		rho += cube / float64(k)
		below, above = max(below, mean-math.Float64frombits(low)+tol), max(above, math.Float64frombits(top)-mean+tol)
		maxSum += math.Float64frombits(top) // in the convolution's order: the same width, bit for bit
		pairs = max(pairs, k)
	}
	bins, eps2 := float64(o.bins()), eps*eps
	width := maxSum / bins
	if !(width >= 0x1p-1022 && width <= math.MaxFloat64 && s2 <= math.MaxFloat64 && eps2 <= math.MaxFloat64) {
		return sides
	}
	nf := float64(n)
	slack := 2 * (nf + float64(pairs) + 8) * 0x1p-53
	m := width*(nf/2+1+convShiftSlack*bins*(nf+2)) + slack*(mu+eps2+maxSum)
	t := tails{s2: s2 * (1 + slack)}
	t.sHi = math.Sqrt(t.s2)
	t.sLo = math.Sqrt(max(s2*(1-slack)-(slack*mu)*(slack*mu), 0))
	t.rho = rho * (1 + slack)
	below, above = below*(1+slack), above*(1+slack)
	for k := range sides {
		sides[k] = [2]float64{1 - t.tail(k, eps2-m-mu, above), t.tail(k, mu-(eps2+m), below)}
	}
	return sides
}

// tails holds what bracketSides' tail bounds read: s+^2, s-, s+ and rho.
type tails struct{ s2, sLo, sHi, rho float64 }

// tail bounds P(Y >= a) for Y = S - mu or mu - S, whose terms are each at
// most b above their zero mean, by side k alone; 1 where it does not apply,
// and where it does not beat 1 (a NaN of a degenerate input included).
func (t tails) tail(k int, a, b float64) float64 {
	c := math.NaN()
	switch {
	case k == sideCantelli && a > 0:
		c = t.s2 / (t.s2 + a*a)
	case k == sideBennett && a > 0:
		ab, bb := a*b, b*b
		x, r := ab/t.s2, t.s2/bb
		if min(ab, bb, x, r) >= 0x1p-1022 && max(x, r) <= math.MaxFloat64 {
			h := (1+x)*math.Log1p(x) - x
			c = math.Exp(-r * (h - 16*0x1p-53*(x+h)))
		}
	case k == sideBerryEsseen && t.sLo > 0:
		s, c3 := t.sLo, t.sLo*t.sLo*t.sLo
		if a > 0 {
			s = t.sHi
		}
		if c3 <= math.MaxFloat64 {
			c = stats.NormalCDF(-a/s) + berryEsseenC0*(t.rho/c3)
		}
	}
	if c >= 0 && c < 1 {
		return c
	}
	return 1
}

// binShifts resolves every squared difference of one timestamp to the bin
// shift it applies to all source bins alike, appended to taps in descending
// order; ok = false when some shift is within convShiftSlack of a bin edge,
// and the step must run the scalar loop.
func binShifts(taps []int, m []float64, width float64, bins int) (_ []int, ok bool) {
	taps = slices.Grow(taps, len(m))
	for _, v := range m {
		r := v / width
		t := 0.5 + r
		k := math.Floor(t)
		frac := t - k // exact
		if slack := convShiftSlack * (float64(bins) + r); !(frac > slack && frac < 1-slack) {
			return taps, false
		}
		i := len(taps)
		taps = append(taps, int(k))
		for ; i > 0 && taps[i-1] < int(k); i-- {
			taps[i] = taps[i-1]
		}
		taps[i] = int(k)
	}
	return taps, true
}

// convScratch is the working memory of one convolution refine, pooled so a
// served refine allocates nothing: f holds each timestamp's smallest and
// largest squared difference and three histograms (current, next, current
// scaled by a timestamp's pair weight), pairs every timestamp's squared
// differences back to back, last the reachable-bin table, taps one
// timestamp's bin shifts and offs their offsets from the first.
type convScratch struct {
	f, pairs         []float64
	last, taps, offs []int
}

var convPool = sync.Pool{New: func() any { return new(convScratch) }}

// convCount tallies one convolution's steps as shifted adds, with an
// interior (a bin every tap lands on) or without one, and as the scalar loop,
// for the tests.
type convCount struct{ interior, edgesOnly, scalar int64 }

// convolutionProbability approximates the distribution of the total squared
// distance by repeated histogram convolution and reads off the CDF at
// eps^2. Only the bins that hold mass and can still reach eps^2 are carried
// (see reachableBins): each step reads [lo, hi] and writes up to last[s+1],
// and every bin it keeps receives the addends of a full sweep in the same
// order, so a completed call returns the full sweep's value bit for bit.
//
// A step is a sparse FIR filter, defined by convolveScalar: for every source
// bin j ascending and every squared difference v in sample-pair order, add
// probs[j]*w into bin int(((j+0.5)*width + v)/width). Where that index is
// provably j + k_v for every j (binShifts), the step runs as shifted adds:
// the window is scaled once and added into next at offset k_v, in descending
// k_v, every offset in one pass where all of them land (convolveShifted). A
// destination bin then meets its sources in ascending order, as in the
// scalar loop, and sources that tie (equal k_v) bring the same addend, so
// their order is immaterial: same addends, same order, same bits. A step that
// may clamp into the top bin (keep == bins-1) or holds an unprovable shift
// runs the scalar loop.
//
// Because every squared difference is non-negative, convolving in another
// timestamp only moves mass towards higher bins, so the final CDF at eps^2
// cannot exceed the mass still within reach: once that falls below the
// cutoff the final estimate must too, and the scan abandons (complete =
// false). The mass is read every convReadStride steps, never at cutoff =
// -Inf. ran tallies how the steps ran.
func convolutionProbability(x, y uncertain.SampleSeries, eps, cutoff float64, bins int, done <-chan struct{}) (p float64, complete bool, ran convCount, err error) {
	n := x.Len()
	sc := convPool.Get().(*convScratch)
	defer convPool.Put(sc)
	sc.f = slices.Grow(sc.f[:0], 2*n+3*bins)[:2*n+3*bins]
	sc.last = slices.Grow(sc.last[:0], n+1)[:n+1]
	mins, maxs, hist, last := sc.f[:n], sc.f[n:2*n], sc.f[2*n:], sc.last
	// Upper bound of the total squared distance fixes the histogram domain.
	var maxSum float64
	pairs := slices.Grow(sc.pairs[:0], n*len(x.Samples[0])*len(y.Samples[0])) // exact when every timestamp holds as many samples
	for i := 0; i < n; i++ {
		from := len(pairs)
		pairs = appendSquaredDiffs(pairs, x.Samples[i], y.Samples[i])
		mins[i], maxs[i] = stats.MinMax(pairs[from:])
		maxSum += maxs[i]
	}
	sc.pairs = pairs
	if maxSum == 0 {
		// All materialisations coincide: distance 0 with probability 1.
		return 1, true, ran, nil
	}
	eps2 := eps * eps
	width := maxSum / float64(bins)
	if !(width >= 0x1p-1022 && width <= math.MaxFloat64) {
		// Squared differences that overflow (or vanish into the subnormals)
		// leave no bin width to divide by.
		return 0, false, ran, qerr.BadRequestf("munich: squared distances up to %v do not fit a %d-bin histogram", maxSum, bins)
	}
	reachableBins(last, mins, width, eps2, bins)
	probs, next, scaled := hist[:bins], hist[bins:2*bins], hist[2*bins:]
	// Nothing is ever written above last[n], and nothing above it is read.
	clear(probs[:last[n]+1])
	clear(next[:last[n]+1])
	// Every bin of probs holding mass lies in [lo, hi], hi <= last[step].
	lo, hi := 0, min(0, last[0])
	if hi == 0 {
		probs[0] = 1
	}
	readout := !math.IsInf(cutoff, -1)
	for step := 0; step < n; step++ {
		if cancelled(done) {
			return 0, false, ran, qerr.Cancelled(nil)
		}
		m := pairs[:len(x.Samples[step])*len(y.Samples[step])]
		pairs = pairs[len(m):]
		keep := last[step+1]
		w := 1 / float64(len(m))
		if lo <= hi {
			uniform := false
			if keep != bins-1 {
				sc.taps, uniform = binShifts(sc.taps[:0], m, width, bins)
				sc.offs = slices.Grow(sc.offs[:0], len(m))
			}
			if uniform {
				convolveShifted(probs, next, scaled, lo, hi, keep, sc.taps, sc.offs[:len(m)], w, &ran)
			} else {
				ran.scalar++
				convolveScalar(probs, next, lo, hi, keep, m, w, width, bins)
			}
		}
		probs, next = next, probs
		lo = convBin(lo, mins[step], width, bins)
		hi = min(convBin(hi, maxs[step], width, bins), keep)
		// The mass within reach is the partial CDF itself while keep is
		// still the bin eps^2 falls in.
		if readout && step%convReadStride == convReadStride-1 && step < n-1 &&
			binnedCDF(probs, lo, hi, width, eps2) < cutoff-convCutoffMargin {
			return 0, false, ran, nil
		}
	}
	return binnedCDF(probs, lo, hi, width, eps2), true, ran, nil
}

// convolveShifted is convolveScalar for a step whose squared differences
// shift every source bin alike, by taps (descending): the window scaled once,
// then every tap in one pass. Tap k lands on [lo+k, min(hi+k, keep)], every
// tap on the interior [lo+k_first, min(hi+k_last, keep)]. There addTaps adds
// next[b] + src[b-k_first] + ... + src[b-k_last], left to right; around it
// each tap adds alone, in order. Either way a bin meets its sources in
// ascending order, as in convolveScalar: same addends, same order, same bits.
func convolveShifted(probs, next, scaled []float64, lo, hi, keep int, taps, offs []int, w float64, ran *convCount) {
	src := scaled[:hi+1] // src[j] is source bin j's addend
	scale(src[lo:], probs[lo:hi+1], w)
	clear(probs[lo : hi+1]) // leaves the buffer clean for the step after next
	first, last := taps[0], taps[len(taps)-1]
	from, to := lo+first, min(hi+last, keep)
	if from > to {
		// No bin hears every tap (a window narrower than the taps' spread,
		// or one keep cuts short).
		ran.edgesOnly++
		for _, k := range taps {
			addShifted(next, src, k, lo+k, min(hi+k, keep))
		}
		return
	}
	ran.interior++
	for i, k := range taps {
		addShifted(next, src, k, lo+k, from-1)
		offs[i] = first - k
	}
	addTaps(next[from:to+1], src[from-first:to-last+1], offs)
	for _, k := range taps {
		addShifted(next, src, k, to+1, min(hi+k, keep))
	}
}

// addShifted adds src[b-k] into next[b] for every bin b in [from, to].
func addShifted(next, src []float64, k, from, to int) {
	if from <= to {
		dst := next[from : to+1]
		s := src[from-k:][:len(dst)]
		for i := range dst {
			dst[i] += s[i]
		}
	}
}

// scaleGo sets dst[j] to src[j]*w for every j of src: the weighting of
// convolveShifted's window (scale, in SSE2 on amd64). The conversion keeps
// each product rounded on platforms that would fuse it.
func scaleGo(dst, src []float64, w float64) {
	dst = dst[:len(src)]
	for j, p := range src {
		dst[j] = float64(p * w)
	}
}

// addTapsGo adds into every bin dst[i] the addends src[o+i], for each offset
// o of offs in turn, left to right: the interior pass of convolveShifted
// (addTaps, in SSE2 on amd64).
func addTapsGo(dst, src []float64, offs []int) {
	for i, a := range dst {
		for _, o := range offs {
			a += src[o+i]
		}
		dst[i] = a
	}
}

// convolveScalar is one convolution step by definition: the mass of every
// source bin in [lo, hi], split evenly over the squared differences in m,
// moves to the bin its centre lands in; mass landing above keep is dropped
// unless keep is the histogram's clamping top bin. It zeroes the source bins.
func convolveScalar(probs, next []float64, lo, hi, keep int, m []float64, w, width float64, bins int) {
	for j := lo; j <= hi; j++ {
		p := probs[j]
		if p == 0 {
			continue
		}
		probs[j] = 0 // leaves the buffer clean for the step after next
		base := float64((float64(j) + 0.5) * width)
		for _, v := range m {
			idx := int((base + v) / width)
			if idx > keep {
				if keep != bins-1 {
					continue // can no longer reach eps^2
				}
				idx = keep
			}
			next[idx] += float64(p * w)
		}
	}
}
