package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-15) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !almostEqual(got, 4, 1e-15) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDevOf(xs); !almostEqual(got, 2, 1e-15) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := SampleVariance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("Mean/Variance of empty input should be NaN")
	}
	if !math.IsNaN(SampleVariance([]float64{1})) {
		t.Error("SampleVariance of a single point should be NaN")
	}
	min, max := MinMax(nil)
	if !math.IsInf(min, 1) || !math.IsInf(max, -1) {
		t.Error("MinMax of empty input should be (+Inf, -Inf)")
	}
}

func TestMeanCICoversTrueMean(t *testing.T) {
	// Frequentist check: ~95% of intervals from N(3, 2^2) samples contain 3.
	rng := NewRand(11)
	d := NewNormal(3, 2)
	const trials = 400
	covered := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 25)
		for j := range xs {
			xs[j] = d.Sample(rng)
		}
		ci := MeanCI(xs, 0.95)
		if ci.Lower <= 3 && 3 <= ci.Upper {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("95%% CI coverage rate = %v, want about 0.95", rate)
	}
}

func TestMeanCIDegenerate(t *testing.T) {
	ci := MeanCI([]float64{7}, 0.95)
	if ci.Mean != 7 || ci.Lower != 7 || ci.Upper != 7 {
		t.Errorf("single-point CI should degenerate to the point, got %+v", ci)
	}
	if ci.HalfWidth() != 0 {
		t.Errorf("HalfWidth = %v, want 0", ci.HalfWidth())
	}
}

func TestMeanCIWidthShrinksWithN(t *testing.T) {
	rng := NewRand(5)
	d := NewNormal(0, 1)
	width := func(n int) float64 {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = d.Sample(rng)
		}
		return MeanCI(xs, 0.95).HalfWidth()
	}
	small := width(20)
	large := width(2000)
	if large >= small {
		t.Errorf("CI half-width should shrink with n: n=20 gives %v, n=2000 gives %v", small, large)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0.5, 1.5, 2.5, 3.5, 9.5, -1, 11})
	if h.N != 7 {
		t.Errorf("N = %d, want 7", h.N)
	}
	wantCounts := []int{3, 2, 0, 0, 2} // -1 clamps to bin 0; 11 clamps to bin 4
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("bin %d count = %d, want %d", i, h.Counts[i], want)
		}
	}
}

func TestHistogramCountsSumToN(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(-5, 5, 8)
		h.AddAll(raw)
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == h.N && h.N == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
