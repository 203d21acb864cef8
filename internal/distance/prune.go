package distance

// Pruning primitives for the query engine: early-abandoning accumulation
// for lock-step distances, and the LB_Keogh envelope lower bound for banded
// DTW. Both let a top-k or range scan discard most candidates after a small
// prefix of the work — the classic UCR-suite tricks, applied here above the
// uncertain-similarity measures.

import (
	"fmt"
	"math"

	"uncertts/internal/qerr"
)

// SquaredEuclideanEarlyAbandon accumulates the squared L2 distance between
// x and y, abandoning as soon as the running sum exceeds cutoff. It returns
// the accumulated sum and whether the scan ran to completion. A completed
// scan returns exactly the value SquaredEuclidean would (same accumulation
// order), and completion implies sum <= cutoff. cutoff = +Inf never
// abandons.
func SquaredEuclideanEarlyAbandon(x, y []float64, cutoff float64) (float64, bool, error) {
	if len(x) != len(y) {
		return 0, false, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	var acc float64
	for i := range x {
		d := x[i] - y[i]
		acc += d * d
		if acc > cutoff {
			return acc, false, nil
		}
	}
	return acc, true, nil
}

// EnvelopeScratch carries the monotonic-deque storage EnvelopeIntoScratch
// reuses across calls. The zero value is ready to use; the first call
// sizes it to the series length. Not safe for concurrent use.
type EnvelopeScratch struct {
	maxDQ, minDQ []int
}

// EnvelopeIntoScratch writes the upper and lower running-extremum
// envelopes of y within a Sakoe-Chiba band of half-width r into upper and
// lower (both must have len(y)):
//
//	upper[i] = max(y[i-r .. i+r])    lower[i] = min(y[i-r .. i+r])
//
// computed in O(n) with monotonic deques. r < 0 (unconstrained DTW) uses
// the whole series as the window. The envelopes feed LBKeoghSquared. It
// allocates nothing once the scratch has warmed up to the series length:
// arena-backed corpora build envelopes in place with it on the ingest path.
func EnvelopeIntoScratch(upper, lower, y []float64, r int, s *EnvelopeScratch) {
	n := len(y)
	if n == 0 {
		return
	}
	if r < 0 || r >= n {
		r = n - 1
	}
	if cap(s.maxDQ) < n {
		s.maxDQ = make([]int, n)
		s.minDQ = make([]int, n)
	}
	// Monotonic index deques: maxDQ keeps decreasing values, minDQ keeps
	// increasing values, over the sliding window [i-r, i+r]. Each index
	// enters a deque at most once, so tail lengths are bounded by n; the
	// head advances instead of re-slicing so the storage keeps its front
	// capacity across calls.
	maxDQ, minDQ := s.maxDQ[:0], s.minDQ[:0]
	maxHead, minHead := 0, 0
	push := func(j int) {
		for len(maxDQ) > maxHead && y[maxDQ[len(maxDQ)-1]] <= y[j] {
			maxDQ = maxDQ[:len(maxDQ)-1]
		}
		maxDQ = append(maxDQ, j)
		for len(minDQ) > minHead && y[minDQ[len(minDQ)-1]] >= y[j] {
			minDQ = minDQ[:len(minDQ)-1]
		}
		minDQ = append(minDQ, j)
	}
	for j := 0; j <= r && j < n; j++ {
		push(j)
	}
	for i := 0; i < n; i++ {
		if in := i + r; in < n && in > r {
			// indices <= r were pushed in the warm-up loop above
			push(in)
		}
		if out := i - r - 1; out >= 0 {
			if maxDQ[maxHead] == out {
				maxHead++
			}
			if minDQ[minHead] == out {
				minHead++
			}
		}
		upper[i] = y[maxDQ[maxHead]]
		lower[i] = y[minDQ[minHead]]
	}
}

// LBKimSquared is the O(1) first/last-point lower bound on the squared
// banded-DTW path cost between x and y: every warping path aligns x[0] with
// y[0] and x[n-1] with y[m-1], so those two squared point costs (one when
// the series have a single point) are always paid. It is far weaker than
// LB_Keogh but costs two subtractions, making it the first tier of the
// prune cascade.
func LBKimSquared(x, y []float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	d0 := x[0] - y[0]
	acc := d0 * d0
	if len(x) > 1 || len(y) > 1 {
		dn := x[len(x)-1] - y[len(y)-1]
		acc += dn * dn
	}
	return acc
}

// LBKeoghSquared returns the LB_Keogh lower bound on the squared optimal
// path cost of banded DTW between q and the series whose envelopes are
// (upper, lower): every q[i] must align with some y[j] inside the band, so
// its cheapest possible point cost is its squared distance to the envelope.
// DTWBand returns the square root of the path cost, so
// LBKeoghSquared(q, U, L) <= DTWBand(q, y, r)^2 always holds.
//
// The scan abandons once the partial bound exceeds cutoff (pass +Inf to
// force a full evaluation); either way the returned value is a valid lower
// bound.
func LBKeoghSquared(q, upper, lower []float64, cutoff float64) (float64, error) {
	return lbKeogh(q, upper, lower, cutoff, nil)
}

// lbKeogh is LBKeoghSquared that also stores each timestamp's term into
// terms, when not nil (lbKeoghTerms). A term of +0 leaves the sum's bits as
// they are.
func lbKeogh(q, upper, lower []float64, cutoff float64, terms []float64) (float64, error) {
	if len(q) != len(upper) || len(q) != len(lower) {
		return 0, fmt.Errorf("%w: series %d vs envelope %d/%d", ErrLengthMismatch, len(q), len(upper), len(lower))
	}
	if terms != nil {
		terms = terms[:len(q)]
	}
	return lbKeoghTerms(q, upper, lower, terms, cutoff), nil
}

// dtwCancelStride is the number of DP rows computed between cancellation
// polls: frequent enough that even a single long DTW stops within a sliver
// of its runtime, sparse enough that the poll is noise next to a row.
const dtwCancelStride = 32

// DTWScratch holds the DP row of a banded-DTW evaluation and the LB_Keogh
// suffix sums its LBKeoghSquared method arms the next one with, so a scan
// reuses its buffers. The zero value is ready to use; it grows on demand and
// is not safe for concurrent use (give each worker its own).
type DTWScratch struct {
	row      []float64
	suffix   []float64 // suffix[i] = sum of the LB_Keogh terms of q[i:]; suffix[n] = 0
	armed    bool      // suffix belongs to the next DP
	masks    []float64 // bandMasks(maskBand)
	maskBand int
}

// LBKeoghSquared is the package's LBKeoghSquared, bit for bit. When the
// bound is at most cutoff it also arms the next DTWBandEarlyAbandonScratch on
// this scratch with its terms as suffix sums: that call must be the DP of q
// against the series these envelopes (and their band) are of, as in the
// engine's cascade. The DP disarms the scratch, and so does this method
// before it starts. A nil scratch computes the bound alone.
func (s *DTWScratch) LBKeoghSquared(q, upper, lower []float64, cutoff float64) (float64, error) {
	if s == nil {
		return LBKeoghSquared(q, upper, lower, cutoff)
	}
	s.armed = false
	n := len(q)
	if cap(s.suffix) < n+1 {
		s.suffix = make([]float64, n+1)
	}
	suffix := s.suffix[:n+1]
	lb, err := lbKeogh(q, upper, lower, cutoff, suffix[:n])
	if err != nil || !(lb <= cutoff) {
		return lb, err
	}
	suffix[n] = 0
	for t := n - 1; t >= 0; t-- {
		suffix[t] += suffix[t+1]
	}
	s.suffix, s.armed = suffix, true
	return lb, nil
}

// dp returns the scratch's DP row for a series of length m, the suffix sums
// armed for a query of length n (nil when none are), disarming them, and the
// masks of band (band >= 0).
func (s *DTWScratch) dp(n, m, band int) (row, suffix, masks []float64) {
	if cap(s.row) < m+1 {
		s.row = make([]float64, m+1)
	}
	if s.armed && len(s.suffix) == n+1 {
		suffix = s.suffix
	}
	s.armed = false
	if band >= 0 && (s.masks == nil || s.maskBand != band) {
		s.masks, s.maskBand = bandMasks(band), band
	}
	return s.row[:m+1], suffix, s.masks
}

// bandMasks are the masks a sweep of rows i to i+3 under a band adds to the
// costs of a column j that not all four rows hold: masks[4t+r], t = j - i +
// band (0 <= t <= 2band+3), is +0 where row i+r holds column j, |j - (i+r)|
// <= band, and +Inf where it does not.
func bandMasks(band int) []float64 {
	masks := make([]float64, 4*(2*band+4))
	for t := range len(masks) / 4 {
		for r := range 4 {
			if t < r || t > r+2*band {
				masks[4*t+r] = math.Inf(1)
			}
		}
	}
	return masks
}

// suffixCut is the cutoff the suffix bound fl(rowMin_i + S_i) is held to,
// inflated so that a pair whose computed cost D is within the cutoff is
// never abandoned on it. With u = 2^-53: a term fl(fl(q_t - e)^2), e = y_j
// of the band, never exceeds the DP's cost fl(fl(q_t - y_j)^2) of a cell of
// row t+1 (rounding is monotone). Past its last cell in row i, worth at least
// rowMin_i, D's path adds K <= n+m cells, one or more a row, each a rounded
// sum of non-negatives: D >= (1-u)^K (rowMin_i + L_i), L_i the exact sum of
// the terms ahead. S_i and the bound are n-i+1 rounded sums of
// non-negatives, so fl(rowMin_i + S_i) <= (1+u)^(n+1) (1-u)^-(n+m) D, under
// 1 + (2n+m+2)u + O(u^2); the inflating product rounds twice more, and
// 4(n+m+2)u covers it (~8.6e-14 at n = m = 128). Where a sum would overflow
// the inflated cut is +Inf; subnormal sums are exact.
func suffixCut(cutoff float64, n, m int) float64 {
	return cutoff * (1 + float64(4*(n+m+2))*0x1p-53)
}

// DTWBandEarlyAbandonScratch is DTWBand with a cutoff on the squared path
// cost: once every reachable cell of a DP row exceeds cutoff, no completion
// can come in under it and the scan abandons. It returns the distance (the
// square root of the path cost, identical to DTWBand when complete) and
// whether the computation completed. Completion implies dist^2 <= cutoff up
// to the final-cell check; cutoff = +Inf never abandons (DTWBand is exactly
// that call). Every dtwCancelStride DP rows it polls done and, once done is
// closed, returns an error wrapping qerr.ErrCancelled; a nil done never
// cancels. scratch is the caller's DP storage; a nil scratch allocates a
// fresh row, with the same arithmetic, so the results are bit-for-bit the
// same.
//
// A scratch armed by its LBKeoghSquared also abandons at row i once
// rowMin_i + suffix_i, a lower bound on the final cost, exceeds suffixCut's
// inflated cutoff, returning the root of that bound: the call completes
// exactly when the unarmed one does, with the same value.
//
// Rows i to i+3 run in one sweep over the columns any of them holds (sweep4),
// each row a cell behind the one above it, reading that row's cells from
// registers: the four left-neighbour chains interleave and only row i+3 is
// written. A column some of the four rows do not hold adds +Inf to those
// rows' costs (bandMasks), which makes their cells the +Inf the band puts
// there. Every cell keeps its operands and its one rounded sum, so the values
// are the single-row loop's bit for bit. The last sweep runs the rows past n
// beside the last ones, as rows nothing reads.
//
// x and y must be finite (the corpus refuses anything else at insert, the
// engine at prepare): the DP then only ever holds finite squares, their sums
// and +Inf — never NaN, never -0 — and over such operands the builtin min
// picks exactly the value a compare-and-branch chain would, without a
// data-dependent branch.
func DTWBandEarlyAbandonScratch(x, y []float64, band int, cutoff float64, done <-chan struct{}, scratch *DTWScratch) (float64, bool, error) {
	return dtwBand(x, y, band, cutoff, done, scratch, false)
}

// dtwBand is DTWBandEarlyAbandonScratch over sweep4, or over the Go loop it
// is held to (sweep4Go) when goSweep is set.
func dtwBand(x, y []float64, band int, cutoff float64, done <-chan struct{}, scratch *DTWScratch, goSweep bool) (float64, bool, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, false, fmt.Errorf("distance: DTW over empty series")
	}
	if band >= 0 && abs(n-m) > band {
		return 0, false, fmt.Errorf("distance: DTW band %d narrower than length difference %d", band, abs(n-m))
	}
	if band >= max(n, m) {
		band = -1 // every row holds every column either way
	}
	if scratch == nil {
		scratch = new(DTWScratch)
	}
	row, suffix, masks := scratch.dp(n, m, band)
	cut := cutoff
	if suffix != nil {
		cut = suffixCut(cutoff, n, m)
	}
	span := func(i int) (lo, hi int) { // row i's band in columns 1..m
		lo, hi = 1, m
		if band >= 0 {
			lo, hi = max(lo, i-band), min(hi, i+band)
		}
		return lo, hi
	}
	inf := math.Inf(1)
	for j := range row {
		row[j] = inf
	}
	row[0] = 0
	var c sweep4Cells
	for i := 1; i <= n; i += 4 {
		// row holds row i-1 on [loA-1, hiA] and receives row i+3 on [loA-1,
		// hiD+1], edge cells unreachable. The columns [mid0, mid1] are those
		// all four rows hold; the masks cover the others.
		loA, hiA := span(i)
		loD, hiD := span(i + 3)
		xs := [4]float64{x[i-1], x[min(i, n-1)], x[min(i+1, n-1)], x[min(i+2, n-1)]}
		var pre, post []float64
		if band >= 0 {
			mid0, mid1 := loD, hiA
			if mid0 > mid1 {
				mid0, mid1 = hiD+1, hiD
			}
			t := loA - i + band
			pre = masks[4*t : 4*(t+mid0-loA)]
			t = mid1 + 1 - i + band
			post = masks[4*t : 4*(t+hiD-mid1)]
		}
		c.diag = row[loA-1]
		if goSweep {
			sweep4Go(&xs, y[loA-1:hiD], row[loA:hiD+1], pre, post, &c)
		} else {
			sweep4(&xs, y[loA-1:hiD], row[loA:hiD+1], pre, post, &c)
		}
		row[loA-1] = inf
		if hiD < m {
			row[hiD+1] = inf
		}
		// Path costs are non-decreasing along any warping path, so once the
		// cheapest cell of a row — plus, when armed, the least the rows
		// still ahead must add — exceeds the cutoff, the final cost must too.
		for r := 0; r < 4 && i+r <= n; r++ {
			if r == 3 && done != nil && (i+r)%dtwCancelStride == 0 {
				select {
				case <-done:
					return 0, false, qerr.Cancelled(nil)
				default:
				}
			}
			rowMin := c.mins[r]
			if suffix != nil {
				rowMin += suffix[i+r]
			}
			if rowMin > cut {
				return math.Sqrt(rowMin), false, nil
			}
		}
	}
	final := c.cells[(n-1)%4] // row n's cell at column m, the sweep's last
	if final > cutoff {
		return math.Sqrt(final), false, nil
	}
	return math.Sqrt(final), true, nil
}
