package stats

import "fmt"

// ChiSquareResult is the outcome of a chi-square goodness-of-fit test.
type ChiSquareResult struct {
	Statistic float64 // the chi-square statistic
	DF        int     // degrees of freedom
	PValue    float64 // upper-tail probability
}

// Reject reports whether the null hypothesis is rejected at significance
// level alpha (e.g. 0.01, the level used in Section 4.1.1 of the paper).
func (r ChiSquareResult) Reject(alpha float64) bool {
	return r.PValue < alpha
}

func (r ChiSquareResult) String() string {
	return fmt.Sprintf("chi2=%.4g df=%d p=%.4g", r.Statistic, r.DF, r.PValue)
}

// ChiSquareGoF runs a chi-square goodness-of-fit test of the observed counts
// against the expected counts. Expected entries must be positive. Degrees of
// freedom are len(observed)-1-params, where params is the number of
// parameters of the hypothesised distribution that were estimated from the
// data.
func ChiSquareGoF(observed []int, expected []float64, params int) (ChiSquareResult, error) {
	if len(observed) == 0 || len(observed) != len(expected) {
		return ChiSquareResult{}, fmt.Errorf("stats: ChiSquareGoF: mismatched inputs (%d observed, %d expected)", len(observed), len(expected))
	}
	df := len(observed) - 1 - params
	if df < 1 {
		return ChiSquareResult{}, fmt.Errorf("stats: ChiSquareGoF: non-positive degrees of freedom %d", df)
	}
	var stat float64
	for i, o := range observed {
		e := expected[i]
		if e <= 0 {
			return ChiSquareResult{}, fmt.Errorf("stats: ChiSquareGoF: expected count in bin %d is %v, must be positive", i, e)
		}
		d := float64(o) - e
		stat += d * d / e
	}
	cdf, err := ChiSquareCDF(stat, df)
	if err != nil {
		return ChiSquareResult{}, err
	}
	return ChiSquareResult{Statistic: stat, DF: df, PValue: 1 - cdf}, nil
}

// ChiSquareUniformTest tests whether the observations xs are drawn from the
// uniform distribution over [min(xs), max(xs)], binning the data into the
// given number of equal-width bins. This mirrors the check in Section 4.1.1:
// DUST assumes uniformly distributed series values, and the paper rejects
// that hypothesis on all 17 datasets at alpha = 0.01.
//
// Two parameters (the range endpoints) are treated as estimated from the
// data, so df = bins - 3.
func ChiSquareUniformTest(xs []float64, bins int) (ChiSquareResult, error) {
	if len(xs) < 5*bins {
		return ChiSquareResult{}, fmt.Errorf("stats: ChiSquareUniformTest: need at least %d observations for %d bins, got %d", 5*bins, bins, len(xs))
	}
	lo, hi := MinMax(xs)
	if !(hi > lo) {
		return ChiSquareResult{}, fmt.Errorf("stats: ChiSquareUniformTest: degenerate data range [%v, %v]", lo, hi)
	}
	h := NewHistogram(lo, hi, bins)
	h.AddAll(xs)
	expected := make([]float64, bins)
	per := float64(len(xs)) / float64(bins)
	for i := range expected {
		expected[i] = per
	}
	return ChiSquareGoF(h.Counts, expected, 2)
}
