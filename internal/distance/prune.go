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

// Envelope returns the upper and lower running-extremum envelopes of y
// within a Sakoe-Chiba band of half-width r:
//
//	upper[i] = max(y[i-r .. i+r])    lower[i] = min(y[i-r .. i+r])
//
// computed in O(n) with monotonic deques. r < 0 (unconstrained DTW) uses
// the whole series as the window. The envelopes feed LBKeoghSquared.
func Envelope(y []float64, r int) (upper, lower []float64) {
	n := len(y)
	upper = make([]float64, n)
	lower = make([]float64, n)
	EnvelopeInto(upper, lower, y, r)
	return upper, lower
}

// EnvelopeInto computes Envelope into caller-provided upper and lower
// slices (both must have len(y)). It allocates transient deque storage;
// per-series loops (corpus ingest, batch envelope builds) should hold an
// EnvelopeScratch and call EnvelopeIntoScratch instead.
func EnvelopeInto(upper, lower, y []float64, r int) {
	EnvelopeIntoScratch(upper, lower, y, r, &EnvelopeScratch{})
}

// EnvelopeScratch carries the monotonic-deque storage EnvelopeIntoScratch
// reuses across calls. The zero value is ready to use; the first call
// sizes it to the series length. Not safe for concurrent use.
type EnvelopeScratch struct {
	maxDQ, minDQ []int
}

// EnvelopeIntoScratch is EnvelopeInto with caller-owned scratch — the
// allocation-free form (after the scratch warms up to the series length)
// that arena-backed corpora use to build envelopes in place on the ingest
// path.
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
	if len(q) != len(upper) || len(q) != len(lower) {
		return 0, fmt.Errorf("%w: series %d vs envelope %d/%d", ErrLengthMismatch, len(q), len(upper), len(lower))
	}
	var acc float64
	for i := range q {
		if d := q[i] - upper[i]; d > 0 {
			acc += d * d
		} else if d := lower[i] - q[i]; d > 0 {
			acc += d * d
		}
		if acc > cutoff {
			return acc, nil
		}
	}
	return acc, nil
}

// DTWBandEarlyAbandon is DTWBand with a cutoff on the squared path cost:
// once every reachable cell of a DP row exceeds cutoff, no completion can
// come in under it and the scan abandons. It returns the distance (the
// square root of the path cost, identical to DTWBand when complete) and
// whether the computation completed. Completion implies dist^2 <= cutoff
// up to the final-cell check; cutoff = +Inf never abandons (DTWBand is
// exactly that call).
func DTWBandEarlyAbandon(x, y []float64, band int, cutoff float64) (float64, bool, error) {
	return DTWBandEarlyAbandonCancel(x, y, band, cutoff, nil)
}

// dtwCancelStride is the number of DP rows computed between cancellation
// polls: frequent enough that even a single long DTW stops within a sliver
// of its runtime, sparse enough that the poll is noise next to a row.
const dtwCancelStride = 32

// DTWBandEarlyAbandonCancel is DTWBandEarlyAbandon with cooperative
// cancellation: every dtwCancelStride DP rows it polls done and, once done
// is closed, returns an error wrapping qerr.ErrCancelled. A nil done never
// cancels and computes exactly DTWBandEarlyAbandon.
func DTWBandEarlyAbandonCancel(x, y []float64, band int, cutoff float64, done <-chan struct{}) (float64, bool, error) {
	return DTWBandEarlyAbandonScratch(x, y, band, cutoff, done, nil)
}

// DTWScratch holds the two DP rows a banded-DTW evaluation needs, so a scan
// over many candidates reuses one pair of buffers instead of allocating per
// call. The zero value is ready to use; it grows on demand and is not safe
// for concurrent use (give each worker its own).
type DTWScratch struct {
	prev, curr []float64
}

// rows returns the two DP rows sized for a series of length m, growing the
// scratch buffers if needed.
func (s *DTWScratch) rows(m int) (prev, curr []float64) {
	if cap(s.prev) < m+1 {
		s.prev = make([]float64, m+1)
		s.curr = make([]float64, m+1)
	}
	return s.prev[:m+1], s.curr[:m+1]
}

// DTWBandEarlyAbandonScratch is DTWBandEarlyAbandonCancel with caller-owned
// DP scratch. A nil scratch allocates fresh rows, computing exactly
// DTWBandEarlyAbandonCancel; the arithmetic is identical either way, so the
// results are bit-for-bit the same.
//
// x and y must be finite (the corpus refuses anything else at insert, the
// engine at prepare): the DP then only ever holds finite squares, their sums
// and +Inf — never NaN, never -0 — and over such operands the builtin min
// picks exactly the value a compare-and-branch chain would, without a
// data-dependent branch.
func DTWBandEarlyAbandonScratch(x, y []float64, band int, cutoff float64, done <-chan struct{}, scratch *DTWScratch) (float64, bool, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, false, fmt.Errorf("distance: DTW over empty series")
	}
	if band >= 0 && abs(n-m) > band {
		return 0, false, fmt.Errorf("distance: DTW band %d narrower than length difference %d", band, abs(n-m))
	}
	var prev, curr []float64
	if scratch != nil {
		prev, curr = scratch.rows(m)
	} else {
		prev = make([]float64, m+1)
		curr = make([]float64, m+1)
	}
	inf := math.Inf(1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		if done != nil && i%dtwCancelStride == 0 {
			select {
			case <-done:
				return 0, false, qerr.Cancelled(nil)
			default:
			}
		}
		lo, hi := 1, m
		if band >= 0 {
			if l := i - band; l > lo {
				lo = l
			}
			if h := i + band; h < hi {
				hi = h
			}
		}
		// Only the band is computed and only the band plus one cell either
		// side is written: the next row's band starts no further left and
		// ends at most one cell further right, so [lo-1, hi+1] is all it
		// reads. The two edge cells hold stale values (row i-2's, row 0's
		// origin, or an earlier call's) and must read as unreachable.
		curr[lo-1] = inf
		if hi < m {
			curr[hi+1] = inf
		}
		xi := x[i-1]
		rowMin, left, diag := inf, inf, prev[lo-1]
		for j := lo; j <= hi; j++ {
			d := xi - y[j-1]
			up := prev[j]
			left = d*d + min(up, diag, left)
			curr[j] = left
			rowMin = min(rowMin, left)
			diag = up
		}
		// Path costs are non-decreasing along any warping path, so once the
		// cheapest cell of a row exceeds the cutoff the final cost must too.
		if rowMin > cutoff {
			return math.Sqrt(rowMin), false, nil
		}
		prev, curr = curr, prev
	}
	if prev[m] > cutoff {
		return math.Sqrt(prev[m]), false, nil
	}
	return math.Sqrt(prev[m]), true, nil
}
