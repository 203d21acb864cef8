package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// distUnderTest enumerates representative instances of every distribution.
func distsUnderTest() []Dist {
	return []Dist{
		NewNormal(0, 1),
		NewNormal(-2.5, 0.4),
		NewUniform(-1, 3),
		NewUniformByStdDev(0.7),
		NewExponentialByStdDev(1.2),
		Exponential{Scale: 0.5, Shift: 0},
		NewMixture(
			[]Dist{NewNormal(0, 0.4), NewNormal(0, 1.0)},
			[]float64{0.8, 0.2},
		),
		NewMixture(
			[]Dist{NewUniformByStdDev(1), NewNormal(0, 1), NewExponentialByStdDev(1)},
			[]float64{1, 1, 1},
		),
	}
}

func TestCDFQuantileRoundTrip(t *testing.T) {
	for _, d := range distsUnderTest() {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := d.Quantile(p)
			got := d.CDF(x)
			if !almostEqual(got, p, 1e-6) {
				t.Errorf("%v: CDF(Quantile(%v)) = %v", d, p, got)
			}
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	for _, d := range distsUnderTest() {
		lo, hi := d.Support()
		prev := math.Inf(-1)
		for i := 0; i <= 100; i++ {
			x := lo + (hi-lo)*float64(i)/100
			c := d.CDF(x)
			if c < prev-1e-12 {
				t.Errorf("%v: CDF not monotone at x=%v: %v < %v", d, x, c, prev)
			}
			if c < -1e-12 || c > 1+1e-12 {
				t.Errorf("%v: CDF out of [0,1] at x=%v: %v", d, x, c)
			}
			prev = c
		}
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	for _, d := range distsUnderTest() {
		lo, hi := d.Support()
		total := Integrate(d.PDF, lo, hi, 1e-10)
		if !almostEqual(total, 1, 1e-6) {
			t.Errorf("%v: integral of PDF over support = %v, want 1", d, total)
		}
	}
}

func TestPDFConsistentWithCDF(t *testing.T) {
	// d/dx CDF ~= PDF via central differences at interior points.
	for _, d := range distsUnderTest() {
		lo, hi := d.Support()
		for i := 1; i < 20; i++ {
			x := lo + (hi-lo)*float64(i)/20
			h := (hi - lo) * 1e-6
			num := (d.CDF(x+h) - d.CDF(x-h)) / (2 * h)
			pdf := d.PDF(x)
			// Skip density discontinuities (uniform edges, exponential onset).
			if math.Abs(num-pdf) > 1e-3*(1+pdf) {
				if _, isU := d.(Uniform); isU {
					continue
				}
				if _, isE := d.(Exponential); isE {
					continue
				}
				if _, isM := d.(Mixture); isM {
					continue
				}
				t.Errorf("%v: dCDF/dx(%v) = %v but PDF = %v", d, x, num, pdf)
			}
		}
	}
}

func TestMomentsMatchSampling(t *testing.T) {
	rng := NewRand(42)
	const n = 200000
	for _, d := range distsUnderTest() {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := d.Sample(rng)
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if !almostEqual(mean, d.Mean(), 0.02*(1+math.Abs(d.Mean()))+0.02) {
			t.Errorf("%v: sample mean %v vs analytic %v", d, mean, d.Mean())
		}
		if !almostEqual(variance, d.Variance(), 0.05*(1+d.Variance())) {
			t.Errorf("%v: sample variance %v vs analytic %v", d, variance, d.Variance())
		}
	}
}

func TestZeroMeanErrorConstructions(t *testing.T) {
	for _, sigma := range []float64{0.2, 0.4, 0.7, 1.0, 2.0} {
		for _, d := range []Dist{
			NewNormal(0, sigma),
			NewUniformByStdDev(sigma),
			NewExponentialByStdDev(sigma),
		} {
			if !almostEqual(d.Mean(), 0, 1e-12) {
				t.Errorf("%v: mean = %v, want 0", d, d.Mean())
			}
			if !almostEqual(math.Sqrt(d.Variance()), sigma, 1e-12) {
				t.Errorf("%v: stddev = %v, want %v", d, math.Sqrt(d.Variance()), sigma)
			}
		}
	}
}

func TestNormalKnownDensities(t *testing.T) {
	n := NewNormal(0, 1)
	if !almostEqual(n.PDF(0), 1/math.Sqrt(2*math.Pi), 1e-15) {
		t.Errorf("standard normal PDF(0) = %v", n.PDF(0))
	}
	if !almostEqual(n.CDF(0), 0.5, 1e-15) {
		t.Errorf("standard normal CDF(0) = %v", n.CDF(0))
	}
	if !almostEqual(n.CDF(1.959963984540054), 0.975, 1e-12) {
		t.Errorf("standard normal CDF(1.96) = %v", n.CDF(1.959963984540054))
	}
}

func TestUniformProperties(t *testing.T) {
	u := NewUniform(2, 6)
	if u.PDF(1.99) != 0 || u.PDF(6.01) != 0 {
		t.Error("uniform PDF should vanish outside support")
	}
	if !almostEqual(u.PDF(4), 0.25, 1e-15) {
		t.Errorf("uniform PDF inside = %v, want 0.25", u.PDF(4))
	}
	if !almostEqual(u.Mean(), 4, 1e-15) || !almostEqual(u.Variance(), 16.0/12, 1e-15) {
		t.Errorf("uniform moments wrong: mean=%v var=%v", u.Mean(), u.Variance())
	}
}

func TestExponentialShiftZeroMean(t *testing.T) {
	e := NewExponentialByStdDev(0.8)
	if !almostEqual(e.Mean(), 0, 1e-15) {
		t.Errorf("shifted exponential mean = %v, want 0", e.Mean())
	}
	if e.PDF(-0.81) != 0 {
		t.Error("density below the shift point must be zero")
	}
	if e.PDF(-0.79) <= 0 {
		t.Error("density just above the shift point must be positive")
	}
	// Skewness: exponential errors are right-skewed, so the median is below 0.
	if e.Quantile(0.5) >= 0 {
		t.Errorf("median of zero-mean exponential should be negative, got %v", e.Quantile(0.5))
	}
}

func TestMixtureMoments(t *testing.T) {
	// 20% sigma=1.0, 80% sigma=0.4 (the paper's mixed-error setting).
	m := NewMixture(
		[]Dist{NewNormal(0, 1.0), NewNormal(0, 0.4)},
		[]float64{0.2, 0.8},
	)
	if !almostEqual(m.Mean(), 0, 1e-15) {
		t.Errorf("mixture mean = %v", m.Mean())
	}
	want := 0.2*1.0 + 0.8*0.16
	if !almostEqual(m.Variance(), want, 1e-12) {
		t.Errorf("mixture variance = %v, want %v", m.Variance(), want)
	}
}

func TestMixtureWeightNormalisation(t *testing.T) {
	m := NewMixture([]Dist{NewNormal(0, 1), NewNormal(5, 1)}, []float64{3, 1})
	if !almostEqual(m.Weights[0], 0.75, 1e-15) || !almostEqual(m.Weights[1], 0.25, 1e-15) {
		t.Errorf("weights not normalised: %v", m.Weights)
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("NewNormal sigma=0", func() { NewNormal(0, 0) })
	mustPanic("NewNormal sigma<0", func() { NewNormal(0, -1) })
	mustPanic("NewUniform empty", func() { NewUniform(1, 1) })
	mustPanic("NewExponential sigma<0", func() { NewExponentialByStdDev(-2) })
	mustPanic("NewMixture empty", func() { NewMixture(nil, nil) })
	mustPanic("NewMixture negative weight", func() {
		NewMixture([]Dist{NewNormal(0, 1)}, []float64{-1})
	})
	mustPanic("NewMixture zero weight sum", func() {
		NewMixture([]Dist{NewNormal(0, 1)}, []float64{0})
	})
}

func TestQuantileMonotoneProperty(t *testing.T) {
	for _, d := range distsUnderTest() {
		f := func(p1, p2 float64) bool {
			p1 = math.Mod(math.Abs(p1), 1)
			p2 = math.Mod(math.Abs(p2), 1)
			if p1 > p2 {
				p1, p2 = p2, p1
			}
			return d.Quantile(p1) <= d.Quantile(p2)+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

func TestSplitRandStreamsDiffer(t *testing.T) {
	a := SplitRand(1, 0)
	b := SplitRand(1, 1)
	same := true
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct streams produced identical sequences")
	}
	// Determinism: same (seed, stream) reproduces.
	c := SplitRand(9, 3)
	d := SplitRand(9, 3)
	for i := 0; i < 16; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("SplitRand is not deterministic")
		}
	}
}
