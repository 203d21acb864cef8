package stats

import (
	"math"
	"testing"
)

func normalSamples(t *testing.T, n int, mu, sigma float64, seed int64) []float64 {
	t.Helper()
	rng := NewRand(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = mu + sigma*rng.NormFloat64()
	}
	return out
}

func TestEmpiricalRecoversNormal(t *testing.T) {
	samples := normalSamples(t, 2000, 1.5, 0.7, 3)
	e, err := NewEmpirical(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Mean()-1.5) > 0.05 {
		t.Errorf("mean = %v, want about 1.5", e.Mean())
	}
	if math.Abs(math.Sqrt(e.Variance())-0.7) > 0.07 {
		t.Errorf("stddev = %v, want about 0.7", math.Sqrt(e.Variance()))
	}
	// Density close to the true normal at several points.
	truth := NewNormal(1.5, 0.7)
	for _, x := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		got := e.PDF(x)
		want := truth.PDF(x)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("PDF(%v) = %v, want about %v", x, got, want)
		}
	}
	// CDF close too.
	for _, x := range []float64{0.8, 1.5, 2.2} {
		if math.Abs(e.CDF(x)-truth.CDF(x)) > 0.03 {
			t.Errorf("CDF(%v) = %v, want about %v", x, e.CDF(x), truth.CDF(x))
		}
	}
}

func TestEmpiricalDistInterface(t *testing.T) {
	samples := normalSamples(t, 200, 0, 1, 5)
	e, err := NewEmpirical(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	var d Dist = e // must satisfy the Dist interface
	lo, hi := d.Support()
	total := Integrate(d.PDF, lo, hi, 1e-9)
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("KDE density integrates to %v", total)
	}
	// Quantile/CDF round trip.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		x := d.Quantile(p)
		if math.Abs(d.CDF(x)-p) > 1e-6 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, d.CDF(x))
		}
	}
	if d.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestEmpiricalSampling(t *testing.T) {
	src := normalSamples(t, 500, -2, 0.5, 7)
	e, err := NewEmpirical(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(11)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := e.Sample(rng)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-e.Mean()) > 0.05 {
		t.Errorf("sample mean %v vs KDE mean %v", mean, e.Mean())
	}
	if math.Abs(variance-e.Variance()) > 0.1*e.Variance() {
		t.Errorf("sample variance %v vs KDE variance %v", variance, e.Variance())
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil, 0); err == nil {
		t.Error("empty samples should error")
	}
	if _, err := NewEmpirical([]float64{1}, 0); err == nil {
		t.Error("single sample should error")
	}
	if _, err := NewEmpirical([]float64{3, 3, 3}, 0); err == nil {
		t.Error("zero spread should error")
	}
	// Explicit bandwidth honoured.
	e, err := NewEmpirical([]float64{0, 1}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if e.bandwidth != 0.25 {
		t.Errorf("bandwidth = %v", e.bandwidth)
	}
	if e.N() != 2 {
		t.Errorf("N = %d", e.N())
	}
}

func TestEmpiricalStringFingerprint(t *testing.T) {
	a, _ := NewEmpirical([]float64{0, 1, 2}, 0.5)
	b, _ := NewEmpirical([]float64{0, 1, 2}, 0.5)
	c, _ := NewEmpirical([]float64{0, 1, 2.0001}, 0.5)
	if a.String() != b.String() {
		t.Error("identical data must share a fingerprint (DUST table reuse)")
	}
	if a.String() == c.String() {
		t.Error("different data must not collide")
	}
}
