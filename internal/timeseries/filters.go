package timeseries

import (
	"fmt"
	"math"
)

// MovingAverage returns the moving average of values with window half-width
// w (window width 2w+1), following Eq. 15 of the paper:
//
//	m_i = sum_{j=i-w}^{i+w} v_j / (2w+1)
//
// At the boundaries the window is clipped to the series and the divisor is
// the number of points actually inside, which keeps the filter unbiased at
// the edges. With w = 0 the input is returned unchanged (copied).
func MovingAverage(values []float64, w int) []float64 {
	out := make([]float64, len(values))
	MovingAverageInto(out, values, w)
	return out
}

// MovingAverageInto computes MovingAverage into dst (len(dst) must equal
// len(values)) — the allocation-free form arena-backed callers use.
func MovingAverageInto(dst, values []float64, w int) {
	if w < 0 {
		w = 0
	}
	out := dst
	if w == 0 {
		copy(out, values)
		return
	}
	// A sliding running sum gives O(n) evaluation independent of w with
	// no scratch array: the window over position i is [i-w, i+w] clipped
	// to the series, so stepping i forward admits values[i+w] and evicts
	// values[i-1-w].
	var sum float64
	hi := w
	if hi >= len(values) {
		hi = len(values) - 1
	}
	for k := 0; k <= hi; k++ {
		sum += values[k]
	}
	lo := 0
	for i := range values {
		out[i] = sum / float64(hi-lo+1)
		if next := i + 1 + w; next < len(values) {
			sum += values[next]
			hi = next
		}
		if evict := i + 1 - w; evict > 0 {
			sum -= values[evict-1]
			lo = evict
		}
	}
}

// ExponentialMovingAverage returns the exponentially weighted moving average
// of Eq. 16:
//
//	e_i = sum_{j=i-w}^{i+w} v_j exp(-lambda |j-i|) / sum exp(-lambda |j-i|)
//
// lambda controls the decay; lambda = 0 reduces to the plain moving average.
func ExponentialMovingAverage(values []float64, w int, lambda float64) []float64 {
	out := make([]float64, len(values))
	ExponentialMovingAverageInto(out, values, w, lambda)
	return out
}

// ExponentialMovingAverageInto computes ExponentialMovingAverage into dst
// (len(dst) must equal len(values)).
func ExponentialMovingAverageInto(dst, values []float64, w int, lambda float64) {
	if w < 0 {
		w = 0
	}
	out := dst
	if w == 0 {
		copy(out, values)
		return
	}
	weights := decayWeights(w, lambda)
	for i := range values {
		var num, den float64
		for j := -w; j <= w; j++ {
			k := i + j
			if k < 0 || k >= len(values) {
				continue
			}
			wt := weights[abs(j)]
			num += values[k] * wt
			den += wt
		}
		out[i] = num / den
	}
}

// decayWeights precomputes exp(-lambda*d) for d = 0..w.
func decayWeights(w int, lambda float64) []float64 {
	weights := make([]float64, w+1)
	for d := 0; d <= w; d++ {
		weights[d] = math.Exp(-lambda * float64(d))
	}
	return weights
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// WeightMode selects between the two readings of the paper's Eq. 17/18 for
// the uncertainty-weighted filters.
type WeightMode int

const (
	// WeightModeNormalized divides by the sum of the weights actually used,
	// i.e. a standard weighted moving average. This is the default.
	WeightModeNormalized WeightMode = iota
	// WeightModeStrict follows the paper's formulas verbatim: Eq. 17 divides
	// by 2w+1 and Eq. 18 divides by sum of the decay factors alone, so the
	// per-point 1/sigma weights rescale the output.
	WeightModeStrict
)

func (m WeightMode) String() string {
	switch m {
	case WeightModeNormalized:
		return "normalized"
	case WeightModeStrict:
		return "strict"
	default:
		return fmt.Sprintf("WeightMode(%d)", int(m))
	}
}

// UncertainMovingAverage computes the paper's UMA filter (Eq. 17): a moving
// average in which each observation v_j is weighted by the reciprocal of its
// error standard deviation s_j, so that noisier points contribute less.
//
// sigmas must have the same length as values and contain positive entries.
func UncertainMovingAverage(values, sigmas []float64, w int, mode WeightMode) ([]float64, error) {
	out := make([]float64, len(values))
	if err := UncertainMovingAverageInto(out, values, sigmas, w, mode); err != nil {
		return nil, err
	}
	return out, nil
}

// UncertainMovingAverageInto computes the UMA filter into dst (len(dst)
// must equal len(values)).
func UncertainMovingAverageInto(dst, values, sigmas []float64, w int, mode WeightMode) error {
	if len(values) != len(sigmas) {
		return fmt.Errorf("timeseries: UncertainMovingAverage: %w (%d values, %d sigmas)", ErrLengthMismatch, len(values), len(sigmas))
	}
	if err := checkSigmas(sigmas); err != nil {
		return err
	}
	if w < 0 {
		w = 0
	}
	out := dst
	for i := range values {
		var num, den float64
		count := 0
		for j := -w; j <= w; j++ {
			k := i + j
			if k < 0 || k >= len(values) {
				continue
			}
			num += values[k] / sigmas[k]
			den += 1 / sigmas[k]
			count++
		}
		switch mode {
		case WeightModeStrict:
			out[i] = num / float64(count)
		default:
			out[i] = num / den
		}
	}
	return nil
}

// UncertainExponentialMovingAverage computes the paper's UEMA filter
// (Eq. 18): exponential decay around the current point combined with the
// 1/sigma uncertainty weights.
func UncertainExponentialMovingAverage(values, sigmas []float64, w int, lambda float64, mode WeightMode) ([]float64, error) {
	out := make([]float64, len(values))
	if err := UncertainExponentialMovingAverageInto(out, values, sigmas, w, lambda, mode); err != nil {
		return nil, err
	}
	return out, nil
}

// UncertainExponentialMovingAverageInto computes the UEMA filter into dst
// (len(dst) must equal len(values)).
func UncertainExponentialMovingAverageInto(dst, values, sigmas []float64, w int, lambda float64, mode WeightMode) error {
	if len(values) != len(sigmas) {
		return fmt.Errorf("timeseries: UncertainExponentialMovingAverage: %w (%d values, %d sigmas)", ErrLengthMismatch, len(values), len(sigmas))
	}
	if err := checkSigmas(sigmas); err != nil {
		return err
	}
	if w < 0 {
		w = 0
	}
	weights := decayWeights(w, lambda)
	out := dst
	for i := range values {
		var num, denStrict, denNorm float64
		for j := -w; j <= w; j++ {
			k := i + j
			if k < 0 || k >= len(values) {
				continue
			}
			decay := weights[abs(j)]
			num += values[k] * decay / sigmas[k]
			denStrict += decay
			denNorm += decay / sigmas[k]
		}
		switch mode {
		case WeightModeStrict:
			out[i] = num / denStrict
		default:
			out[i] = num / denNorm
		}
	}
	return nil
}

func checkSigmas(sigmas []float64) error {
	for i, s := range sigmas {
		if s <= 0 || math.IsNaN(s) {
			return fmt.Errorf("timeseries: sigma at index %d is %v, must be positive", i, s)
		}
	}
	return nil
}
