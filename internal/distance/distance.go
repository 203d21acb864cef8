// Package distance implements the distance functions underlying the
// similarity techniques: Euclidean distance (the basis of MUNICH and
// PROUD) and Dynamic Time Warping (Section 3.2 of the paper). All DTW runs
// one banded DP, DTWBandEarlyAbandonScratch: four rows a sweep, each a cell
// behind the one above, neighbours in registers, a branch-free exact min.
// After its scratch's LBKeoghSquared it also abandons once a row's minimum
// plus the LB_Keogh terms still ahead pass the cutoff (the UCR suite's
// suffix bound).
//
// The two loops that run once per cell or timestamp, the DP's sweep and
// LB_Keogh's terms, are SSE2 assembly on amd64 (kernels_amd64.s; baseline
// amd64 always has SSE2, so nothing tests the CPU). The row bookkeeping,
// the abandon tests and the cancellation poll stay in Go around them. The
// Go loops they are held to bit for bit (kernels.go: sweep4Go, lbKeoghGo)
// are compiled everywhere, run on every other architecture
// (kernels_other.go) and are called directly by the tests and fuzz targets.
// MINSD and MAXPD differ from the builtin min and max only on a NaN operand
// or on operands that compare equal (they return the second one, so +0
// against -0 gives either): the DP's inputs are finite, so its cells are
// never NaN or -0 and MINSD picks the builtin's bits; LB_Keogh puts 0 as
// MAXPD's second operand, which makes it d > 0 ? d : 0, the Go loop's test,
// for every d.
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
