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
//     arrive at or below eps^2, and runs as a handful of shifted adds: a
//     squared difference moves every bin by the same number of bins unless
//     it sits within a few ulps (convShiftSlack) of a bin edge, and adding
//     the scaled window once per difference, largest shift first, hands each
//     bin its addends in the order of the bin-by-bin definition — the
//     scalar loop kept beside it, which the rare edge case still runs — so
//     the estimate is that loop's bit for bit. Scratch comes from a pool;
//   - Monte Carlo, by sampling materialisations, usable with any inner
//     distance including DTW.
//
// Upper/lower distance bounds from the per-timestamp minimal bounding
// intervals provide the pruning step of the original paper: a candidate
// whose upper bound is within eps is accepted without counting, one whose
// lower bound exceeds eps is rejected without counting. Between them and the
// count sits Options.MomentBracket: the total squared distance is a sum of
// independent per-timestamp terms, so its mean and variance (multiply-adds,
// no exp) put a two-sided Cantelli bracket on the estimate the count would
// return, widened by the convolution's own discretisation.
package munich

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"uncertts/internal/distance"
	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// Estimator selects how the distance-count probability is computed.
type Estimator int

const (
	// EstimatorAuto picks Exact when the meet-in-the-middle enumeration
	// stays within MaxExactCombos, Convolution otherwise.
	EstimatorAuto Estimator = iota
	// EstimatorExact forces the exact meet-in-the-middle count.
	EstimatorExact
	// EstimatorConvolution forces the histogram-convolution approximation.
	EstimatorConvolution
	// EstimatorMonteCarlo samples materialisations; required for DTW.
	EstimatorMonteCarlo
)

func (e Estimator) String() string {
	switch e {
	case EstimatorAuto:
		return "auto"
	case EstimatorExact:
		return "exact"
	case EstimatorConvolution:
		return "convolution"
	case EstimatorMonteCarlo:
		return "montecarlo"
	default:
		return fmt.Sprintf("Estimator(%d)", int(e))
	}
}

// Options configures probability estimation.
type Options struct {
	// Estimator selects the counting strategy. Default EstimatorAuto.
	Estimator Estimator
	// MaxExactCombos caps the per-half enumeration size of the exact
	// estimator (default 1<<21). Above the cap, Auto falls back to
	// convolution.
	MaxExactCombos int
	// Bins is the histogram resolution of the convolution estimator
	// (default 4096).
	Bins int
	// MonteCarloSamples is the number of sampled materialisation pairs
	// (default 20000).
	MonteCarloSamples int
	// Seed drives the Monte Carlo estimator.
	Seed int64
	// UseDTW switches the inner distance from Euclidean to DTW. Only the
	// Monte Carlo estimator supports it.
	UseDTW bool
}

func (o Options) withDefaults() Options {
	if o.MaxExactCombos <= 0 {
		o.MaxExactCombos = 1 << 21
	}
	if o.Bins <= 0 {
		o.Bins = 4096
	}
	if o.MonteCarloSamples <= 0 {
		o.MonteCarloSamples = 20000
	}
	return o
}

// ErrNeedMonteCarlo is returned when a DTW probability is requested from a
// counting estimator; the distance no longer decomposes per timestamp, so
// only sampling applies.
var ErrNeedMonteCarlo = errors.New("munich: DTW probabilities require EstimatorMonteCarlo")

// Probability returns Pr(distance(X, Y) <= eps) under the MUNICH semantics.
func Probability(x, y uncertain.SampleSeries, eps float64, opts Options) (float64, error) {
	p, _, err := ProbabilityCutoff(x, y, eps, math.Inf(-1), opts)
	return p, err
}

// ProbabilityCutoff is Probability with an estimator-native early
// rejection: the computation may stop — returning complete = false — as
// soon as the final estimate is provably below cutoff in the estimator's
// own arithmetic (the convolution CDF at eps^2 only decreases as further
// timestamps convolve in; a Monte Carlo tally cannot beat hits-so-far plus
// samples-remaining). A completed call returns exactly Probability's
// value, so a threshold test against cutoff decides identically either
// way; cutoff = -Inf never abandons. The exact estimator has no prefix
// structure (meet-in-the-middle) and always completes.
func ProbabilityCutoff(x, y uncertain.SampleSeries, eps, cutoff float64, opts Options) (float64, bool, error) {
	return ProbabilityCutoffCancel(x, y, eps, cutoff, opts, nil)
}

// ProbabilityCutoffCancel is ProbabilityCutoff with cooperative
// cancellation: the combination counting polls done between convolution
// steps, Monte Carlo sample batches and exact-enumeration blocks and, once
// done is closed, returns an error wrapping qerr.ErrCancelled — so even a
// single slow refine stops within a sliver of its runtime instead of
// holding its executor shard. A nil done never cancels and computes
// exactly ProbabilityCutoff.
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
	opts = opts.withDefaults()

	if opts.UseDTW {
		if opts.Estimator != EstimatorMonteCarlo && opts.Estimator != EstimatorAuto {
			return 0, false, ErrNeedMonteCarlo
		}
		return monteCarloProbability(x, y, eps, cutoff, opts, done)
	}

	switch {
	case opts.Estimator == EstimatorMonteCarlo:
		return monteCarloProbability(x, y, eps, cutoff, opts, done)
	case opts.Estimator == EstimatorConvolution, opts.Estimator == EstimatorAuto && !opts.ExactFeasible(x, y):
		return convolutionProbability(x, y, eps, cutoff, opts.Bins, done)
	}
	p, err := exactProbability(x, y, eps, opts.MaxExactCombos, done)
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

// ExactFeasible reports whether the exact meet-in-the-middle count fits
// the options' combination cap for this pair — i.e. whether Probability
// with EstimatorAuto (or EstimatorExact) resolves it exactly rather than
// approximately. Callers use it to decide whether a bound proven against
// the exact probability also bounds the estimate the refine step returns.
func (o Options) ExactFeasible(x, y uncertain.SampleSeries) bool {
	if o.UseDTW || o.Estimator == EstimatorConvolution || o.Estimator == EstimatorMonteCarlo {
		return false
	}
	return x.Len() == y.Len() && exactFits(x, y, o.withDefaults().MaxExactCombos)
}

// exactFits reports whether both halves of the meet-in-the-middle split
// enumerate within maxCombos sums.
func exactFits(x, y uncertain.SampleSeries, maxCombos int) bool {
	n := x.Len()
	half := func(lo, hi int) bool {
		size := 1
		for i := lo; i < hi; i++ {
			size *= len(x.Samples[i]) * len(y.Samples[i])
			if size > maxCombos || size <= 0 {
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
// series. A query posed against many candidates computes its own once.
type Intervals struct{ Lo, Hi []float64 }

// BoundingIntervals reads the intervals off a series.
func BoundingIntervals(s uncertain.SampleSeries) Intervals {
	iv := Intervals{Lo: make([]float64, s.Len()), Hi: make([]float64, s.Len())}
	for i := range iv.Lo {
		iv.Lo[i], iv.Hi[i] = s.MinMaxAt(i)
	}
	return iv
}

// Bounds returns lower and upper bounds on every feasible Euclidean distance
// between materialisations of the series x was read off and y, derived from
// the per-timestamp minimal bounding intervals (the pruning device of the
// original paper).
func (x Intervals) Bounds(y uncertain.SampleSeries) (lo, hi float64, err error) {
	if err := y.Validate(); err != nil {
		return 0, 0, err
	}
	if len(x.Lo) != y.Len() {
		return 0, 0, fmt.Errorf("munich: series lengths differ: %d vs %d", len(x.Lo), y.Len())
	}
	var lo2, hi2 float64
	for i, xlo := range x.Lo {
		xhi := x.Hi[i]
		ylo, yhi := y.MinMaxAt(i)
		dmin := minGap(xlo, xhi, ylo, yhi)
		// Maximal possible |xi - yi|.
		dmax := math.Max(math.Abs(xhi-ylo), math.Abs(yhi-xlo))
		lo2 += dmin * dmin
		hi2 += dmax * dmax
	}
	return math.Sqrt(lo2), math.Sqrt(hi2), nil
}

// ProbUpperBound returns a cheap, sound upper bound on Pr(distance(X, Y) <=
// eps) without enumerating combinations. For any timestamp t the total
// squared distance is at least d_t^2 plus the sum of the minimal squared
// gaps of every other timestamp, so
//
//	Pr(dist <= eps) <= Pr(d_t^2 <= eps^2 - sum_{j != t} dmin_j^2)
//
// and the right-hand side is the fraction of sample pairs at timestamp t
// within the residual budget — an O(sx*sy) count per timestamp, versus the
// full estimator's enumeration or convolution. The bound is the minimum
// over all timestamps. A range query can reject a candidate as soon as the
// bound falls below tau — but only when the refine step is exact (see
// Options.ExactFeasible): the bound holds for the exact probability, not
// for a convolution or Monte Carlo estimate of it.
func ProbUpperBound(x, y uncertain.SampleSeries, eps float64) (float64, error) {
	if err := x.Validate(); err != nil {
		return 0, err
	}
	if err := y.Validate(); err != nil {
		return 0, err
	}
	if x.Len() != y.Len() {
		return 0, fmt.Errorf("munich: series lengths differ: %d vs %d", x.Len(), y.Len())
	}
	if eps < 0 {
		return 0, nil
	}
	n := x.Len()
	dmin2 := make([]float64, n)
	var lo2 float64
	for i := 0; i < n; i++ {
		xlo, xhi := x.MinMaxAt(i)
		ylo, yhi := y.MinMaxAt(i)
		dmin := minGap(xlo, xhi, ylo, yhi)
		dmin2[i] = dmin * dmin
		lo2 += dmin2[i]
	}
	eps2 := eps * eps
	best := 1.0
	for t := 0; t < n; t++ {
		budget := eps2 - (lo2 - dmin2[t])
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

// Prune applies the bounding-interval test.
func (x Intervals) Prune(y uncertain.SampleSeries, eps float64) (PruneDecision, error) {
	lo, hi, err := x.Bounds(y)
	if err != nil {
		return PruneUnknown, err
	}
	switch {
	case hi <= eps:
		return PruneAccept, nil
	case lo > eps:
		return PruneReject, nil
	default:
		return PruneUnknown, nil
	}
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
// using meet-in-the-middle. If the enumeration would exceed maxCombos per
// half it returns an error (EstimatorAuto asks ExactFeasible first).
func exactProbability(x, y uncertain.SampleSeries, eps float64, maxCombos int, done <-chan struct{}) (float64, error) {
	if !exactFits(x, y, maxCombos) {
		return 0, fmt.Errorf("munich: exact enumeration exceeds cap %d per half", maxCombos)
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

// MomentBracket returns lo <= p <= hi for p = Probability(x, y, eps, o),
// without counting: a two-sided
// Cantelli bound on S, the total squared distance of a random
// materialisation. S is a sum of n independent terms X_t, each uniform over
// the squared sample differences at t. Its mean mu and variance s2 take one
// O(n*s^2) pass, with a two-pass variance per timestamp. Monte Carlo, DTW
// and an exact count the cap refuses get the trivial [0, 1]. So does a
// domain the convolution would refuse, which leaves that error to the refine.
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
// err by far less than w. The rounding of mu, s2, eps^2 and the readout's
// compares is at most the 2(n + s^2 + 8)u relative slack folded into m and
// s2. Cantelli, P(S - mu <= -a) <= s2/(s2 + a^2) and the same bound for
// P(S - mu >= a) with a > 0, then brackets both sides; it needs only that the
// terms be independent, which is MUNICH's model. The histogram's own mass
// rounding (a few ulps per addition) is left to the caller's margin.
func (o Options) MomentBracket(x, y uncertain.SampleSeries, eps float64) (lo, hi float64) {
	o = o.withDefaults()
	n := x.Len()
	if o.UseDTW || o.Estimator == EstimatorMonteCarlo || n != y.Len() || eps < 0 ||
		o.Estimator == EstimatorExact && !exactFits(x, y, o.MaxExactCombos) {
		return 0, 1
	}
	var mu, s2, maxSum float64
	pairs := 0
	for i := 0; i < n; i++ {
		xs, ys := x.Samples[i], y.Samples[i]
		var sum, top float64
		for _, a := range xs {
			for _, b := range ys {
				d := a - b
				v := float64(d * d) // the convolution's squared difference
				sum += v
				top = max(top, v)
			}
		}
		k := float64(len(xs) * len(ys))
		mean := sum / k
		var dev float64
		for _, a := range xs {
			for _, b := range ys {
				d := a - b
				e := float64(d*d) - mean
				dev += e * e
			}
		}
		mu += mean
		s2 += dev / k
		maxSum += top // in the convolution's order: the same width, bit for bit
		pairs = max(pairs, len(xs)*len(ys))
	}
	bins, eps2 := float64(o.Bins), eps*eps
	width := maxSum / bins
	if !(width >= 0x1p-1022 && width <= math.MaxFloat64 && s2 <= math.MaxFloat64 && eps2 <= math.MaxFloat64) {
		return 0, 1
	}
	nf := float64(n)
	slack := 2 * (nf + float64(pairs) + 8) * 0x1p-53
	m := width*(nf/2+1+convShiftSlack*bins*(nf+2)) + slack*(mu+eps2+maxSum)
	s2 *= 1 + slack
	lo, hi = 0, 1
	if a := mu - (eps2 + m); a > 0 {
		hi = s2 / (s2 + a*a)
	}
	if a := eps2 - m - mu; a > 0 {
		lo = 1 - s2/(s2+a*a)
	}
	return lo, hi
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
// timestamp's bin shifts.
type convScratch struct {
	f, pairs   []float64
	last, taps []int
}

var convPool = sync.Pool{New: func() any { return new(convScratch) }}

// convFast and convScalar count the convolution steps run as shifted adds
// and as the scalar loop; tests read them to show both forms ran.
var convFast, convScalar atomic.Int64

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
// the window is scaled once and added into next at offset k_v, one v after
// another in descending k_v. A destination bin then meets its sources in
// ascending order, as in the scalar loop, and sources that tie (equal k_v)
// bring the same addend, so their order is immaterial: same addends, same
// order, same bits. A step that may clamp into the top bin (keep == bins-1)
// or holds an unprovable shift runs the scalar loop.
//
// Because every squared difference is non-negative, convolving in another
// timestamp only moves mass towards higher bins, so the final CDF at eps^2
// cannot exceed the mass still within reach: once that falls below the
// cutoff the final estimate must too, and the scan abandons (complete =
// false).
func convolutionProbability(x, y uncertain.SampleSeries, eps, cutoff float64, bins int, done <-chan struct{}) (float64, bool, error) {
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
		return 1, true, nil
	}
	eps2 := eps * eps
	width := maxSum / float64(bins)
	if !(width >= 0x1p-1022 && width <= math.MaxFloat64) {
		// Squared differences that overflow (or vanish into the subnormals)
		// leave no bin width to divide by.
		return 0, false, qerr.BadRequestf("munich: squared distances up to %v do not fit a %d-bin histogram", maxSum, bins)
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
	for step := 0; step < n; step++ {
		if cancelled(done) {
			return 0, false, qerr.Cancelled(nil)
		}
		m := pairs[:len(x.Samples[step])*len(y.Samples[step])]
		pairs = pairs[len(m):]
		keep := last[step+1]
		w := 1 / float64(len(m))
		if lo <= hi {
			uniform := false
			if keep != bins-1 {
				sc.taps, uniform = binShifts(sc.taps[:0], m, width, bins)
			}
			if uniform {
				convFast.Add(1)
				convolveShifted(probs, next, scaled, lo, hi, keep, sc.taps, w)
			} else {
				convScalar.Add(1)
				convolveScalar(probs, next, lo, hi, keep, m, w, width, bins)
			}
		}
		probs, next = next, probs
		lo = convBin(lo, mins[step], width, bins)
		hi = min(convBin(hi, maxs[step], width, bins), keep)
		// The mass within reach is the partial CDF itself while keep is
		// still the bin eps^2 falls in.
		if step < n-1 && binnedCDF(probs, lo, hi, width, eps2) < cutoff-convCutoffMargin {
			return 0, false, nil
		}
	}
	return binnedCDF(probs, lo, hi, width, eps2), true, nil
}

// convolveShifted is convolveScalar for a step whose squared differences
// shift every source bin alike, by taps (descending): the window scaled
// once, then one shifted add per tap. The conversion keeps p*w a rounded
// product in both forms on platforms that would fuse it into the sum.
func convolveShifted(probs, next, scaled []float64, lo, hi, keep int, taps []int, w float64) {
	src := scaled[lo : hi+1]
	for i, p := range probs[lo : hi+1] {
		src[i] = float64(p * w)
	}
	clear(probs[lo : hi+1]) // leaves the buffer clean for the step after next
	for _, k := range taps {
		top := min(hi, keep-k) // sources above top can no longer reach eps^2
		if top < lo {
			continue
		}
		dst := next[lo+k : top+k+1]
		for i, s := range src[:len(dst)] {
			dst[i] += s
		}
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

// monteCarloProbability samples materialisation pairs uniformly and returns
// the fraction within eps. It supports both Euclidean and DTW inner
// distances. The tally abandons (complete = false) once even an all-hit
// remainder could not lift the estimate to the cutoff — an integer-exact
// test, so the implied threshold decision matches the full run's.
func monteCarloProbability(x, y uncertain.SampleSeries, eps, cutoff float64, opts Options, done <-chan struct{}) (float64, bool, error) {
	rng := stats.SplitRand(opts.Seed, int64(x.ID)<<20|int64(y.ID))
	n := x.Len()
	total := opts.MonteCarloSamples
	bufX := make([]float64, n)
	bufY := make([]float64, n)
	hits := 0
	for s := 0; s < total; s++ {
		if s%256 == 255 && cancelled(done) {
			return 0, false, qerr.Cancelled(nil)
		}
		for i := 0; i < n; i++ {
			bufX[i] = x.Samples[i][rng.Intn(len(x.Samples[i]))]
			bufY[i] = y.Samples[i][rng.Intn(len(y.Samples[i]))]
		}
		var d float64
		var err error
		if opts.UseDTW {
			d, err = distance.DTW(bufX, bufY)
		} else {
			d, err = distance.Euclidean(bufX, bufY)
		}
		if err != nil {
			return 0, false, err
		}
		if d <= eps {
			hits++
		}
		if float64(hits+total-1-s)/float64(total) < cutoff {
			return 0, false, nil
		}
	}
	return float64(hits) / float64(total), true, nil
}
