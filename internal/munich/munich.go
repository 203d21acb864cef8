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
//     with resolution controlled by the bin count — each step carrying only
//     the bins whose mass can still arrive at or below eps^2, which is where
//     a served refine spends its time (128 timestamps x 9 sample pairs over
//     4096 bins otherwise);
//   - Monte Carlo, by sampling materialisations, usable with any inner
//     distance including DTW.
//
// Upper/lower distance bounds from the per-timestamp minimal bounding
// intervals provide the pruning step of the original paper: a candidate
// whose upper bound is within eps is accepted without counting, one whose
// lower bound exceeds eps is rejected without counting.
package munich

import (
	"errors"
	"fmt"
	"math"
	"sort"

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

	switch opts.Estimator {
	case EstimatorMonteCarlo:
		return monteCarloProbability(x, y, eps, cutoff, opts, done)
	case EstimatorExact:
		p, err := exactProbability(x, y, eps, opts.MaxExactCombos, done)
		return p, err == nil, err
	case EstimatorConvolution:
		return convolutionProbability(x, y, eps, cutoff, opts.Bins, done)
	default: // Auto
		p, err := exactProbability(x, y, eps, opts.MaxExactCombos, done)
		if err == nil {
			return p, true, nil
		}
		if errors.Is(err, qerr.ErrCancelled) {
			return 0, false, err
		}
		return convolutionProbability(x, y, eps, cutoff, opts.Bins, done)
	}
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
	o = o.withDefaults()
	n := x.Len()
	if y.Len() != n {
		return false
	}
	half := func(lo, hi int) bool {
		size := 1
		for i := lo; i < hi; i++ {
			size *= len(x.Samples[i]) * len(y.Samples[i])
			if size > o.MaxExactCombos || size <= 0 {
				return false
			}
		}
		return true
	}
	split := n / 2
	return half(0, split) && half(split, n)
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

// Bounds returns lower and upper bounds on every feasible Euclidean distance
// between materialisations of x and y, derived from the per-timestamp
// minimal bounding intervals (the pruning device of the original paper).
func Bounds(x, y uncertain.SampleSeries) (lo, hi float64, err error) {
	if err := x.Validate(); err != nil {
		return 0, 0, err
	}
	if err := y.Validate(); err != nil {
		return 0, 0, err
	}
	if x.Len() != y.Len() {
		return 0, 0, fmt.Errorf("munich: series lengths differ: %d vs %d", x.Len(), y.Len())
	}
	var lo2, hi2 float64
	for i := 0; i < x.Len(); i++ {
		xlo, xhi := x.MinMaxAt(i)
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
func Prune(x, y uncertain.SampleSeries, eps float64) (PruneDecision, error) {
	lo, hi, err := Bounds(x, y)
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
	out := make([]float64, 0, len(xs)*len(ys))
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
// half it returns an error; EstimatorAuto callers fall back to convolution.
func exactProbability(x, y uncertain.SampleSeries, eps float64, maxCombos int, done <-chan struct{}) (float64, error) {
	n := x.Len()
	multisets := make([][]float64, n)
	for i := 0; i < n; i++ {
		multisets[i] = squaredDiffMultiset(x, y, i)
	}
	// Split so the two halves have balanced enumeration sizes.
	split := n / 2
	sizeA, okA := productSize(multisets[:split], maxCombos)
	sizeB, okB := productSize(multisets[split:], maxCombos)
	if !okA || !okB {
		return 0, fmt.Errorf("munich: exact enumeration exceeds cap %d (halves %d x %d)", maxCombos, sizeA, sizeB)
	}
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

// productSize returns the product of multiset sizes, capped.
func productSize(ms [][]float64, cap int) (int, bool) {
	size := 1
	for _, m := range ms {
		size *= len(m)
		if size > cap || size <= 0 {
			return size, false
		}
	}
	return size, true
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
// (every operation is), which is what makes reachableBins exact. The
// conversion keeps the product from fusing into the sum, so the look-ahead
// and the convolution loop round alike on every platform.
func convBin(j int, v, width float64, bins int) int {
	idx := int((float64((float64(j)+0.5)*width) + v) / width)
	if idx >= bins {
		idx = bins - 1
	}
	return idx
}

// reachableBins returns, for the histogram after each of the len(mins)+1
// steps (step 0 is the unit mass in bin 0), the highest bin whose mass can
// still arrive where binnedCDF reads at eps2: last[n] is the first bin whose
// upper edge lies beyond eps2, and last[s] the largest j whose minimal
// destination under timestamp s (its smallest squared difference, mins[s])
// is within last[s+1] — -1 when there is none. Mass above last[s] can only
// land above last[s+1], so a convolution that drops it reads the same bins
// at the end.
func reachableBins(mins []float64, width, eps2 float64, bins int) []int {
	n := len(mins)
	last := make([]int, n+1)
	last[n] = sort.Search(bins-1, func(j int) bool { return (float64(j)+1)*width > eps2 })
	for s := n - 1; s >= 0; s-- {
		j := last[s+1] // convBin(j, v) >= j for v >= 0
		for j >= 0 && convBin(j, mins[s], width, bins) > last[s+1] {
			j--
		}
		last[s] = j
	}
	return last
}

// convolutionProbability approximates the distribution of the total squared
// distance by repeated histogram convolution and reads off the CDF at
// eps^2. Only the bins that can still reach eps^2 are carried (see
// reachableBins): each step reads [lo, last[s]] and writes up to
// last[s+1], and every bin it keeps receives the addends of a full sweep
// in the same order, so a completed call returns the full sweep's value bit
// for bit. Because every per-timestamp squared difference is non-negative,
// convolving in another timestamp only moves mass towards higher bins, so
// the final CDF at eps^2 cannot exceed the mass still within reach: once
// that falls below the cutoff the final estimate must too, and the scan
// abandons (complete = false).
func convolutionProbability(x, y uncertain.SampleSeries, eps, cutoff float64, bins int, done <-chan struct{}) (float64, bool, error) {
	n := x.Len()
	// Upper bound of the total squared distance fixes the histogram domain.
	var maxSum float64
	multisets := make([][]float64, n)
	mins := make([]float64, n)
	for i := 0; i < n; i++ {
		m := squaredDiffMultiset(x, y, i)
		multisets[i] = m
		lo, hi := stats.MinMax(m)
		mins[i] = lo
		maxSum += hi
	}
	if maxSum == 0 {
		// All materialisations coincide: distance 0 with probability 1.
		if eps >= 0 {
			return 1, true, nil
		}
		return 0, true, nil
	}
	eps2 := eps * eps
	width := maxSum / float64(bins)
	last := reachableBins(mins, width, eps2, bins)
	probs := make([]float64, bins)
	next := make([]float64, bins)
	if last[0] >= 0 {
		probs[0] = 1
	}
	lo := 0 // no bin of probs below lo holds mass; none above last[step] either
	for step, m := range multisets {
		if cancelled(done) {
			return 0, false, qerr.Cancelled(nil)
		}
		keep := last[step+1]
		w := 1 / float64(len(m))
		for j := lo; j <= last[step]; j++ {
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
				next[idx] += p * w
			}
		}
		probs, next = next, probs
		lo = convBin(lo, mins[step], width, bins)
		// The mass within reach is the partial CDF itself while keep is
		// still the bin eps^2 falls in.
		if step < n-1 && binnedCDF(probs, lo, keep, width, eps2) < cutoff-convCutoffMargin {
			return 0, false, nil
		}
	}
	return binnedCDF(probs, lo, last[n], width, eps2), true, nil
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

// Matcher answers probabilistic range queries PRQ(Q, C, eps, tau) over
// sample-model uncertain series (Equation 2 of the paper).
type Matcher struct {
	// Eps is the distance threshold.
	Eps float64
	// Tau is the probability threshold.
	Tau float64
	// Opts configures probability estimation.
	Opts Options
}

// Matches reports whether Pr(distance(q, c) <= Eps) >= Tau, applying the
// bounding-interval pruning before any counting.
func (m Matcher) Matches(q, c uncertain.SampleSeries) (bool, error) {
	switch dec, err := Prune(q, c, m.Eps); {
	case err != nil:
		return false, err
	case dec == PruneAccept:
		return true, nil
	case dec == PruneReject:
		return false, nil
	}
	p, err := Probability(q, c, m.Eps, m.Opts)
	if err != nil {
		return false, err
	}
	return p >= m.Tau, nil
}

// RangeQuery returns the IDs of all series in the collection that match the
// probabilistic range predicate against q.
func (m Matcher) RangeQuery(q uncertain.SampleSeries, collection []uncertain.SampleSeries) ([]int, error) {
	var out []int
	for _, c := range collection {
		ok, err := m.Matches(q, c)
		if err != nil {
			return nil, fmt.Errorf("munich: candidate %d: %w", c.ID, err)
		}
		if ok {
			out = append(out, c.ID)
		}
	}
	return out, nil
}
