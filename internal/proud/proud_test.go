package proud

import (
	"math"
	"testing"

	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestDistanceMomentsCertainSeries(t *testing.T) {
	// With zero sigmas, the "distribution" degenerates to the exact squared
	// Euclidean distance with zero variance.
	q := []float64{0, 0, 0}
	c := []float64{1, 2, 2}
	d, err := Distance(q, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d.Mean, 9, 1e-12) {
		t.Errorf("mean = %v, want 9", d.Mean)
	}
	if d.Variance != 0 {
		t.Errorf("variance = %v, want 0", d.Variance)
	}
}

func TestDistanceMomentsAgainstSimulation(t *testing.T) {
	// Monte Carlo check of E[dist^2] and Var[dist^2] under Gaussian errors.
	rng := stats.NewRand(7)
	qTrue := []float64{0.5, -1, 2, 0}
	cTrue := []float64{0, 0, 1.5, 1}
	qSigma, cSigma := 0.3, 0.5
	const trials = 300000
	var sum, sumSq float64
	for tr := 0; tr < trials; tr++ {
		var d2 float64
		for i := range qTrue {
			x := qTrue[i] + rng.NormFloat64()*qSigma
			y := cTrue[i] + rng.NormFloat64()*cSigma
			d := x - y
			d2 += d * d
		}
		sum += d2
		sumSq += d2 * d2
	}
	simMean := sum / trials
	simVar := sumSq/trials - simMean*simMean
	d, err := Distance(qTrue, cTrue, qSigma, cSigma)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d.Mean, simMean, 0.02*simMean) {
		t.Errorf("analytic mean %v vs simulated %v", d.Mean, simMean)
	}
	if !almostEqual(d.Variance, simVar, 0.05*simVar) {
		t.Errorf("analytic variance %v vs simulated %v", d.Variance, simVar)
	}
}

func TestDistanceErrors(t *testing.T) {
	if _, err := Distance([]float64{1}, []float64{1, 2}, 1, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Distance([]float64{1}, []float64{1}, -1, 1); err == nil {
		t.Error("negative sigma should error")
	}
}

func TestDistancePDFMatchesConstantSigma(t *testing.T) {
	// When every timestamp has the same error stddev, DistancePDF and
	// Distance agree.
	qObs := []float64{1, 2, 3}
	cObs := []float64{2, 2, 1}
	mk := func(obs []float64, sigma float64, id int) uncertain.PDFSeries {
		errs := make([]stats.Dist, len(obs))
		for i := range errs {
			errs[i] = stats.NewNormal(0, sigma)
		}
		return uncertain.PDFSeries{Observations: obs, Errors: errs, ID: id}
	}
	q := mk(qObs, 0.4, 0)
	c := mk(cObs, 0.6, 1)
	viaPDF, err := DistancePDF(q, c)
	if err != nil {
		t.Fatal(err)
	}
	viaConst, err := Distance(qObs, cObs, 0.4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(viaPDF.Mean, viaConst.Mean, 1e-12) || !almostEqual(viaPDF.Variance, viaConst.Variance, 1e-12) {
		t.Errorf("PDF (%+v) and constant-sigma (%+v) paths disagree", viaPDF, viaConst)
	}
}

func TestDistancePDFValidation(t *testing.T) {
	good := uncertain.PDFSeries{
		Observations: []float64{1},
		Errors:       []stats.Dist{stats.NewNormal(0, 1)},
	}
	if _, err := DistancePDF(good, uncertain.PDFSeries{}); err == nil {
		t.Error("invalid candidate should error")
	}
	longer := uncertain.PDFSeries{
		Observations: []float64{1, 2},
		Errors:       []stats.Dist{stats.NewNormal(0, 1), stats.NewNormal(0, 1)},
	}
	if _, err := DistancePDF(good, longer); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestEpsLimit(t *testing.T) {
	// tau = 0.5 gives limit 0; higher tau gives positive limits.
	l, err := EpsLimit(0.5)
	if err != nil || !almostEqual(l, 0, 1e-12) {
		t.Errorf("EpsLimit(0.5) = %v, %v", l, err)
	}
	l95, err := EpsLimit(0.95)
	if err != nil || !almostEqual(l95, 1.6448536269514722, 1e-9) {
		t.Errorf("EpsLimit(0.95) = %v, %v", l95, err)
	}
	if _, err := EpsLimit(0); err == nil {
		t.Error("tau=0 should error")
	}
	if _, err := EpsLimit(1); err == nil {
		t.Error("tau=1 should error")
	}
}

func TestProbWithinMatchesNormalCDF(t *testing.T) {
	d := DistanceDist{Mean: 10, Variance: 4}
	// eps^2 = 12 -> z = (12-10)/2 = 1.
	got := d.ProbWithin(math.Sqrt(12))
	want := stats.NormalCDF(1)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("ProbWithin = %v, want %v", got, want)
	}
}

func TestProbWithinDegenerate(t *testing.T) {
	d := DistanceDist{Mean: 9, Variance: 0}
	if d.ProbWithin(3) != 1 { // eps^2 = 9 >= 9
		t.Error("certain distance exactly at eps should have probability 1")
	}
	if d.ProbWithin(2.9) != 0 {
		t.Error("certain distance above eps should have probability 0")
	}
	if !math.IsInf(d.EpsNorm(3), 1) || !math.IsInf(d.EpsNorm(2), -1) {
		t.Error("EpsNorm of a certain distance should be signed infinity")
	}
}

func TestNormalHelper(t *testing.T) {
	n := DistanceDist{Mean: 5, Variance: 4}.Normal()
	if !almostEqual(n.Mu, 5, 1e-12) || !almostEqual(n.Sigma, 2, 1e-12) {
		t.Errorf("Normal() = %+v", n)
	}
	degenerate := DistanceDist{Mean: 5, Variance: 0}.Normal()
	if degenerate.Sigma <= 0 {
		t.Error("degenerate Normal() must still have positive sigma")
	}
}

func TestMatcherAcceptanceMonotoneInTau(t *testing.T) {
	// Raising tau makes the test stricter: acceptance can only shrink.
	q := []float64{0, 0, 0, 0}
	c := []float64{0.5, 0.5, 0.5, 0.5}
	accepted := func(tau float64) bool {
		m := Matcher{Eps: 1.1, Tau: tau, QuerySigma: 0.3, CandSigma: 0.3}
		ok, err := m.Matches(q, c)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	prev := true
	for _, tau := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
		cur := accepted(tau)
		if cur && !prev {
			t.Errorf("acceptance at tau=%v after rejection at lower tau", tau)
		}
		prev = cur
	}
}

func TestMatcherRangeQuerySeparatesNearFromFar(t *testing.T) {
	mk := func(id int, v float64, n int) uncertain.PDFSeries {
		obs := make([]float64, n)
		errs := make([]stats.Dist, n)
		for i := range obs {
			obs[i] = v
			errs[i] = stats.NewNormal(0, 0.2)
		}
		return uncertain.PDFSeries{Observations: obs, Errors: errs, ID: id}
	}
	q := mk(0, 0, 16)
	near := mk(1, 0.1, 16)
	far := mk(2, 3, 16)
	m := Matcher{Eps: 2, Tau: 0.5, QuerySigma: 0.2, CandSigma: 0.2}
	got, err := m.RangeQuery(q, []uncertain.PDFSeries{near, far})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("range query = %v, want [1]", got)
	}
}

func TestMatcherErrorPropagation(t *testing.T) {
	q := uncertain.PDFSeries{Observations: []float64{1}, Errors: []stats.Dist{stats.NewNormal(0, 1)}}
	bad := uncertain.PDFSeries{Observations: []float64{1, 2}, Errors: []stats.Dist{stats.NewNormal(0, 1), stats.NewNormal(0, 1)}, ID: 3}
	m := Matcher{Eps: 1, Tau: 0.5}
	if _, err := m.RangeQuery(q, []uncertain.PDFSeries{bad}); err == nil {
		t.Error("length mismatch in candidate should error")
	}
	if _, err := m.RangeQuery(uncertain.PDFSeries{}, nil); err == nil {
		t.Error("invalid query should error")
	}
	badTau := Matcher{Eps: 1, Tau: 2}
	if _, err := badTau.Matches([]float64{1}, []float64{1}); err == nil {
		t.Error("invalid tau should error")
	}
}

func TestTopKIndices(t *testing.T) {
	xs := []float64{0.1, -5, 2, 0, 3}
	idx := topKIndices(xs, 2)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 4 {
		t.Errorf("topKIndices = %v, want [1 4]", idx)
	}
	all := topKIndices(xs, 0)
	if len(all) != len(xs) {
		t.Errorf("k<=0 should keep everything, got %d", len(all))
	}
	over := topKIndices(xs, 99)
	if len(over) != len(xs) {
		t.Errorf("k>len should clamp, got %d", len(over))
	}
}
