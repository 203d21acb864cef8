package stats

import "testing"

func TestIntegratePolynomial(t *testing.T) {
	// Simpson is exact for cubics.
	f := func(x float64) float64 { return 3*x*x*x - x + 2 }
	got := Integrate(f, -1, 2, 1e-12)
	want := 3.0/4*(16-1) - (4.0-1)/2 + 2*3 // antiderivative 3x^4/4 - x^2/2 + 2x
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("integral = %v, want %v", got, want)
	}
}

func TestIntegrateGaussian(t *testing.T) {
	n := NewNormal(0, 1)
	got := Integrate(n.PDF, -8, 8, 1e-12)
	if !almostEqual(got, 1, 1e-9) {
		t.Errorf("Gaussian integral = %v, want 1", got)
	}
}

func TestIntegrateOrientation(t *testing.T) {
	f := func(x float64) float64 { return x }
	fwd := Integrate(f, 0, 2, 1e-10)
	rev := Integrate(f, 2, 0, 1e-10)
	if !almostEqual(fwd, 2, 1e-10) || !almostEqual(rev, -2, 1e-10) {
		t.Errorf("fwd=%v rev=%v, want 2 and -2", fwd, rev)
	}
	if Integrate(f, 1, 1, 1e-10) != 0 {
		t.Error("zero-width integral should be 0")
	}
}

func TestIntegrateSharpPeak(t *testing.T) {
	// Narrow Gaussian inside a wide interval stresses adaptivity. The width
	// is chosen above the documented resolution limit of the 64-panel
	// pre-split over [-10, 10].
	n := NewNormal(3, 0.05)
	got := Integrate(n.PDF, -10, 10, 1e-12)
	if !almostEqual(got, 1, 1e-6) {
		t.Errorf("sharp peak integral = %v, want 1", got)
	}
}

func TestIntegrateDefaultTolerance(t *testing.T) {
	got := Integrate(func(x float64) float64 { return x * x }, 0, 3, 0)
	if !almostEqual(got, 9, 1e-6) {
		t.Errorf("integral with default tolerance = %v, want 9", got)
	}
}
