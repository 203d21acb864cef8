package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestErfInvRoundTrip(t *testing.T) {
	for _, x := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 0.1, 0.5, 0.9, 0.999} {
		got := math.Erf(ErfInv(x))
		if !almostEqual(got, x, 1e-12) {
			t.Errorf("erf(erfinv(%v)) = %v, want %v", x, got, x)
		}
	}
}

func TestErfInvKnownValues(t *testing.T) {
	// Reference values computed with high-precision tools.
	cases := []struct{ x, want float64 }{
		{0.5, 0.4769362762044699},
		{0.9, 1.1630871536766743},
		{-0.5, -0.4769362762044699},
		{0.99, 1.8213863677184496},
	}
	for _, c := range cases {
		if got := ErfInv(c.x); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("ErfInv(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestErfInvEdgeCases(t *testing.T) {
	if !math.IsInf(ErfInv(1), 1) {
		t.Errorf("ErfInv(1) should be +Inf")
	}
	if !math.IsInf(ErfInv(-1), -1) {
		t.Errorf("ErfInv(-1) should be -Inf")
	}
	if !math.IsNaN(ErfInv(1.5)) {
		t.Errorf("ErfInv(1.5) should be NaN")
	}
	if !math.IsNaN(ErfInv(math.NaN())) {
		t.Errorf("ErfInv(NaN) should be NaN")
	}
	if ErfInv(0) != 0 {
		t.Errorf("ErfInv(0) should be exactly 0")
	}
}

func TestErfInvOddProperty(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 1) // map into [0,1)
		if x == 0 {
			return true
		}
		return almostEqual(ErfInv(-x), -ErfInv(x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileAgainstCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatalf("NormalQuantile(%v): %v", p, err)
		}
		if got := NormalCDF(z); !almostEqual(got, p, 1e-12) {
			t.Errorf("NormalCDF(NormalQuantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		got, err := NormalQuantile(c.p)
		if err != nil {
			t.Fatalf("NormalQuantile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileDomain(t *testing.T) {
	if _, err := NormalQuantile(-0.1); err == nil {
		t.Error("NormalQuantile(-0.1) should error")
	}
	if _, err := NormalQuantile(1.1); err == nil {
		t.Error("NormalQuantile(1.1) should error")
	}
	z, err := NormalQuantile(0)
	if err != nil || !math.IsInf(z, -1) {
		t.Errorf("NormalQuantile(0) = %v, %v; want -Inf, nil", z, err)
	}
}

func TestRegularizedGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := RegularizedGammaP(1, x)
		if err != nil {
			t.Fatalf("RegularizedGammaP(1, %v): %v", x, err)
		}
		want := 1 - math.Exp(-x)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("P(1, %v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		got, err := RegularizedGammaP(0.5, x)
		if err != nil {
			t.Fatalf("RegularizedGammaP(0.5, %v): %v", x, err)
		}
		want := math.Erf(math.Sqrt(x))
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("P(0.5, %v) = %v, want %v", x, got, want)
		}
	}
}

func TestRegularizedGammaDomainErrors(t *testing.T) {
	if _, err := RegularizedGammaP(0, 1); err == nil {
		t.Error("a=0 should be a domain error")
	}
	if _, err := RegularizedGammaP(1, -1); err == nil {
		t.Error("x<0 should be a domain error")
	}
	p, err := RegularizedGammaP(3, 0)
	if err != nil || p != 0 {
		t.Errorf("P(3, 0) = %v, %v; want 0, nil", p, err)
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Critical values: P(chi2_1 <= 3.841459) = 0.95, P(chi2_10 <= 18.307) ~= 0.95.
	cases := []struct {
		x    float64
		k    int
		want float64
		tol  float64
	}{
		{3.841458820694124, 1, 0.95, 1e-9},
		{18.307038053275146, 10, 0.95, 1e-9},
		{6.634896601021213, 1, 0.99, 1e-9},
		{2, 2, 1 - math.Exp(-1), 1e-12}, // chi2_2 is Exp(1/2)
	}
	for _, c := range cases {
		got, err := ChiSquareCDF(c.x, c.k)
		if err != nil {
			t.Fatalf("ChiSquareCDF(%v, %d): %v", c.x, c.k, err)
		}
		if !almostEqual(got, c.want, c.tol) {
			t.Errorf("ChiSquareCDF(%v, %d) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
}

func TestChiSquareCDFEdge(t *testing.T) {
	if _, err := ChiSquareCDF(1, 0); err == nil {
		t.Error("k=0 should be a domain error")
	}
	got, err := ChiSquareCDF(-1, 3)
	if err != nil || got != 0 {
		t.Errorf("ChiSquareCDF(-1, 3) = %v, %v; want 0, nil", got, err)
	}
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	// Two-sided 95% critical values from standard t tables.
	cases := []struct {
		p, nu, want float64
	}{
		{0.975, 1, 12.7062},
		{0.975, 4, 2.7764},
		{0.975, 10, 2.2281},
		{0.975, 30, 2.0423},
		{0.95, 10, 1.8125},
	}
	for _, c := range cases {
		got, err := StudentTQuantile(c.p, c.nu)
		if err != nil {
			t.Fatalf("StudentTQuantile(%v, %v): %v", c.p, c.nu, err)
		}
		if !almostEqual(got, c.want, 5e-4) {
			t.Errorf("StudentTQuantile(%v, %v) = %v, want %v", c.p, c.nu, got, c.want)
		}
	}
}

func TestStudentTQuantileSymmetry(t *testing.T) {
	f := func(p, nu float64) bool {
		p = 0.01 + 0.48*math.Mod(math.Abs(p), 1) // (0.01, 0.49)
		nu = 1 + math.Mod(math.Abs(nu), 50)
		lo, err1 := StudentTQuantile(p, nu)
		hi, err2 := StudentTQuantile(1-p, nu)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(lo, -hi, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTQuantileMedianIsZero(t *testing.T) {
	got, err := StudentTQuantile(0.5, 7)
	if err != nil || got != 0 {
		t.Errorf("StudentTQuantile(0.5, 7) = %v, %v; want 0, nil", got, err)
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	tv, err := StudentTQuantile(0.975, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := NormalQuantile(0.975)
	if !almostEqual(tv, z, 1e-3) {
		t.Errorf("t quantile with huge df = %v, want close to normal %v", tv, z)
	}
}
