package uncertain

import (
	"math"
	"testing"

	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
)

func flatSeries(n int, id int) timeseries.Series {
	s := timeseries.New(make([]float64, n))
	s.ID = id
	return s
}

func TestErrorFamilyMake(t *testing.T) {
	for _, f := range AllErrorFamilies() {
		d := f.Make(0.7)
		if !almostEqual(d.Mean(), 0, 1e-12) {
			t.Errorf("%v: mean %v", f, d.Mean())
		}
		if !almostEqual(math.Sqrt(d.Variance()), 0.7, 1e-12) {
			t.Errorf("%v: stddev %v", f, math.Sqrt(d.Variance()))
		}
	}
	if Normal.String() != "normal" || Uniform.String() != "uniform" || Exponential.String() != "exponential" {
		t.Error("family names wrong")
	}
	if ErrorFamily(42).String() == "" {
		t.Error("unknown family should still stringify")
	}
}

func TestErrorFamilyMakePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Make on unknown family should panic")
		}
	}()
	ErrorFamily(42).Make(1)
}

func TestConstantPerturberErrors(t *testing.T) {
	if _, err := NewConstantPerturber(Normal, 0.5, 0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewConstantPerturber(Normal, 0, 5, 1); err == nil {
		t.Error("sigma=0 should error")
	}
	if _, err := NewConstantPerturber(Normal, -1, 5, 1); err == nil {
		t.Error("negative sigma should error")
	}
}

func TestPerturbPDFStatistics(t *testing.T) {
	// Perturbing a zero series should yield observations distributed like
	// the error itself.
	const n = 20000
	p, err := NewConstantPerturber(Normal, 0.5, n, 99)
	if err != nil {
		t.Fatal(err)
	}
	ps := p.PerturbPDF(flatSeries(n, 0))
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	mu := stats.Mean(ps.Observations)
	sd := stats.StdDevOf(ps.Observations)
	if math.Abs(mu) > 0.02 {
		t.Errorf("perturbed mean = %v, want about 0", mu)
	}
	if math.Abs(sd-0.5) > 0.02 {
		t.Errorf("perturbed stddev = %v, want about 0.5", sd)
	}
}

func TestPerturbIsDeterministic(t *testing.T) {
	s := flatSeries(100, 7)
	p1, _ := NewConstantPerturber(Uniform, 1, 100, 123)
	p2, _ := NewConstantPerturber(Uniform, 1, 100, 123)
	a := p1.PerturbPDF(s)
	b := p2.PerturbPDF(s)
	for i := range a.Observations {
		if a.Observations[i] != b.Observations[i] {
			t.Fatal("same seed must give identical perturbation")
		}
	}
	p3, _ := NewConstantPerturber(Uniform, 1, 100, 124)
	c := p3.PerturbPDF(s)
	same := true
	for i := range a.Observations {
		if a.Observations[i] != c.Observations[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different perturbations")
	}
}

func TestPerturbIndependentOfProcessingOrder(t *testing.T) {
	p, _ := NewConstantPerturber(Normal, 1, 10, 5)
	s3 := flatSeries(10, 3)
	s9 := flatSeries(10, 9)
	a := p.PerturbPDF(s3)
	_ = p.PerturbPDF(s9)
	b := p.PerturbPDF(s3)
	for i := range a.Observations {
		if a.Observations[i] != b.Observations[i] {
			t.Fatal("perturbation of a series must depend only on (seed, series ID)")
		}
	}
}

func TestPerturbSamples(t *testing.T) {
	p, _ := NewConstantPerturber(Exponential, 0.4, 50, 11)
	ss, err := p.PerturbSamples(flatSeries(50, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 50 || ss.SamplesPerTimestamp() != 5 {
		t.Errorf("shape wrong: len=%d s=%d", ss.Len(), ss.SamplesPerTimestamp())
	}
	if _, err := p.PerturbSamples(flatSeries(50, 1), 0); err == nil {
		t.Error("0 samples per timestamp should error")
	}
	// Mean over many samples approximates the truth (0).
	all := 0.0
	count := 0
	for _, row := range ss.Samples {
		for _, v := range row {
			all += v
			count++
		}
	}
	if got := all / float64(count); math.Abs(got) > 0.1 {
		t.Errorf("overall sample mean = %v, want about 0", got)
	}
}

func TestMixedPerturberHighFraction(t *testing.T) {
	const n = 1000
	spec := MixedSigmaSpec{
		Fraction:  0.2,
		SigmaHigh: 1.0,
		SigmaLow:  0.4,
		Families:  []ErrorFamily{Normal},
	}
	p, err := NewMixedPerturber(spec, n, 77)
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for i := 0; i < n; i++ {
		sd := math.Sqrt(p.Dists[i].Variance())
		switch {
		case almostEqual(sd, 1.0, 1e-9):
			high++
		case almostEqual(sd, 0.4, 1e-9):
		default:
			t.Fatalf("unexpected sigma %v at %d", sd, i)
		}
	}
	if high != 200 {
		t.Errorf("high-sigma count = %d, want exactly 200", high)
	}
}

func TestMixedPerturberMultipleFamilies(t *testing.T) {
	spec := MixedSigmaSpec{
		Fraction:  0.2,
		SigmaHigh: 1.0,
		SigmaLow:  0.4,
		Families:  AllErrorFamilies(),
	}
	p, err := NewMixedPerturber(spec, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range p.Dists {
		switch d.(type) {
		case stats.Normal:
			seen["normal"] = true
		case stats.Uniform:
			seen["uniform"] = true
		case stats.Exponential:
			seen["exponential"] = true
		default:
			t.Fatalf("unexpected dist type %T", d)
		}
	}
	if len(seen) != 3 {
		t.Errorf("expected all three families to appear, saw %v", seen)
	}
}

func TestMixedPerturberValidation(t *testing.T) {
	base := MixedSigmaSpec{Fraction: 0.2, SigmaHigh: 1, SigmaLow: 0.4, Families: []ErrorFamily{Normal}}
	if _, err := NewMixedPerturber(base, 0, 1); err == nil {
		t.Error("n=0 should error")
	}
	bad := base
	bad.Fraction = 1.5
	if _, err := NewMixedPerturber(bad, 10, 1); err == nil {
		t.Error("fraction > 1 should error")
	}
	bad = base
	bad.SigmaLow = 0
	if _, err := NewMixedPerturber(bad, 10, 1); err == nil {
		t.Error("zero sigma should error")
	}
	bad = base
	bad.Families = nil
	if _, err := NewMixedPerturber(bad, 10, 1); err == nil {
		t.Error("no families should error")
	}
}

func TestReportedAndMisreportedDists(t *testing.T) {
	p, _ := NewConstantPerturber(Normal, 0.9, 10, 1)
	rep := p.ReportedDists(10)
	for _, d := range rep {
		if !almostEqual(math.Sqrt(d.Variance()), 0.9, 1e-12) {
			t.Errorf("reported sigma = %v", math.Sqrt(d.Variance()))
		}
	}
	mis := MisreportSigma(Normal, 0.7, 5)
	if len(mis) != 5 {
		t.Fatalf("len = %d", len(mis))
	}
	for _, d := range mis {
		if !almostEqual(math.Sqrt(d.Variance()), 0.7, 1e-12) {
			t.Errorf("misreported sigma = %v", math.Sqrt(d.Variance()))
		}
	}
}

func TestPerturberCyclicDists(t *testing.T) {
	// A perturber built for length 5 applied to a length-10 series repeats
	// the assignment rather than panicking.
	p, _ := NewConstantPerturber(Normal, 1, 5, 1)
	ps := p.PerturbPDF(flatSeries(10, 0))
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 10 {
		t.Errorf("len = %d", ps.Len())
	}
}
