// Package distance implements the distance functions underlying the
// similarity techniques: Lp norms, Euclidean distance (the basis of MUNICH
// and PROUD), and Dynamic Time Warping (which MUNICH and DUST can also be
// combined with, Section 3.2 of the paper). All DTW runs one banded DP,
// DTWBandEarlyAbandonScratch: two rows a sweep, the second a cell behind,
// neighbours in registers, a branch-free exact builtin min. After its
// scratch's LBKeoghSquared it also abandons once a row's minimum plus the
// LB_Keogh terms still ahead pass the cutoff (the UCR suite's suffix bound).
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

// Lp returns the Minkowski distance of order p >= 1 between x and y.
// p = math.Inf(1) gives the Chebyshev distance.
func Lp(x, y []float64, p float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	if p < 1 {
		return 0, fmt.Errorf("distance: Lp order %v < 1 is not a metric", p)
	}
	if math.IsInf(p, 1) {
		var max float64
		for i := range x {
			if d := math.Abs(x[i] - y[i]); d > max {
				max = d
			}
		}
		return max, nil
	}
	//lint:allow floatcmp Minkowski-order dispatch: p is a caller-chosen exact constant, not a computed value
	if p == 2 {
		return Euclidean(x, y)
	}
	//lint:allow floatcmp Minkowski-order dispatch: p is a caller-chosen exact constant, not a computed value
	if p == 1 {
		var acc float64
		for i := range x {
			acc += math.Abs(x[i] - y[i])
		}
		return acc, nil
	}
	var acc float64
	for i := range x {
		acc += math.Pow(math.Abs(x[i]-y[i]), p)
	}
	return math.Pow(acc, 1/p), nil
}

// DTW returns the Dynamic Time Warping distance between x and y with
// unconstrained warping, using squared point costs and returning the square
// root of the optimal path cost (the convention that makes DTW coincide with
// Euclidean distance when the optimal path is the diagonal).
func DTW(x, y []float64) (float64, error) {
	return DTWBand(x, y, -1)
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

// Matrix computes the full pairwise distance matrix of a collection using
// the supplied distance function. Entry [i][j] holds d(items[i], items[j]).
// The function is assumed symmetric; each pair is evaluated once.
func Matrix(items [][]float64, d func(a, b []float64) (float64, error)) ([][]float64, error) {
	n := len(items)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v, err := d(items[i], items[j])
			if err != nil {
				return nil, fmt.Errorf("distance: matrix entry (%d, %d): %w", i, j, err)
			}
			out[i][j] = v
			out[j][i] = v
		}
	}
	return out, nil
}
