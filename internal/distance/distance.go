// Package distance implements the distance functions underlying the
// similarity techniques: Euclidean distance (the basis of MUNICH and
// PROUD) and Dynamic Time Warping (Section 3.2 of the paper). All DTW runs
// one banded DP, DTWBandEarlyAbandonScratch: two rows a sweep, the second a
// cell behind, neighbours in registers, a branch-free exact builtin min.
// After its scratch's LBKeoghSquared it also abandons once a row's minimum
// plus the LB_Keogh terms still ahead pass the cutoff (the UCR suite's
// suffix bound).
package distance

import (
	"errors"
	"fmt"
	"math"
)

// ErrLengthMismatch is returned for lock-step distances over unequal-length
// inputs.
var ErrLengthMismatch = errors.New("distance: input lengths differ")

// Euclidean returns the L2 distance between x and y.
func Euclidean(x, y []float64) (float64, error) {
	d2, err := SquaredEuclidean(x, y)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(d2), nil
}

// SquaredEuclidean returns the squared L2 distance between x and y. Working
// with squares avoids the sqrt in inner loops; thresholds are squared once
// instead.
func SquaredEuclidean(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	var acc float64
	for i := range x {
		d := x[i] - y[i]
		acc += d * d
	}
	return acc, nil
}

// DTWBand returns the DTW distance constrained to a Sakoe-Chiba band of the
// given half-width (band < 0 means unconstrained). The band must be at least
// |len(x)-len(y)| for a path to exist. It is the pruning kernel
// (DTWBandEarlyAbandonScratch, a DP over the (n+1) x (m+1) cost matrix that
// keeps one row) at a cutoff that never abandons, and shares its contract:
// x and y must be finite.
func DTWBand(x, y []float64, band int) (float64, error) {
	d, _, err := DTWBandEarlyAbandonScratch(x, y, band, math.Inf(1), nil, nil)
	return d, err
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
