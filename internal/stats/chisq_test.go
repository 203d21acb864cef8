package stats

import (
	"math"
	"testing"
)

func TestChiSquareGoFUniformDataAccepted(t *testing.T) {
	rng := NewRand(17)
	u := NewUniform(0, 1)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = u.Sample(rng)
	}
	res, err := ChiSquareUniformTest(xs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("uniform data rejected as non-uniform: %v", res)
	}
}

func TestChiSquareGoFNormalDataRejected(t *testing.T) {
	// Mirrors Section 4.1.1: clearly non-uniform values must be rejected at
	// alpha = 0.01.
	rng := NewRand(23)
	d := NewNormal(0, 1)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	res, err := ChiSquareUniformTest(xs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Errorf("normal data not rejected as uniform: %v", res)
	}
}

func TestChiSquareGoFKnownStatistic(t *testing.T) {
	observed := []int{8, 12}
	expected := []float64{10, 10}
	res, err := ChiSquareGoF(observed, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Statistic, 0.8, 1e-12) {
		t.Errorf("statistic = %v, want 0.8", res.Statistic)
	}
	if res.DF != 1 {
		t.Errorf("df = %d, want 1", res.DF)
	}
	// p = P(chi2_1 > 0.8) = erfc(sqrt(0.4)).
	want := math.Erfc(math.Sqrt(0.4))
	if !almostEqual(res.PValue, want, 1e-10) {
		t.Errorf("p = %v, want %v", res.PValue, want)
	}
}

func TestChiSquareGoFErrors(t *testing.T) {
	if _, err := ChiSquareGoF(nil, nil, 0); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ChiSquareGoF([]int{1, 2}, []float64{1}, 0); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := ChiSquareGoF([]int{1, 2}, []float64{1, 0}, 0); err == nil {
		t.Error("zero expected count should error")
	}
	if _, err := ChiSquareGoF([]int{1, 2}, []float64{1, 1}, 5); err == nil {
		t.Error("df <= 0 should error")
	}
}

func TestChiSquareUniformTestErrors(t *testing.T) {
	if _, err := ChiSquareUniformTest([]float64{1, 2, 3}, 10); err == nil {
		t.Error("too few observations should error")
	}
	same := make([]float64, 200)
	if _, err := ChiSquareUniformTest(same, 10); err == nil {
		t.Error("degenerate range should error")
	}
}
