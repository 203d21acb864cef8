package munich

import (
	"math"
	"math/rand"
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

// tinySeries builds a SampleSeries from explicit samples.
func tinySeries(id int, samples ...[]float64) uncertain.SampleSeries {
	return uncertain.SampleSeries{Samples: samples, ID: id}
}

// bruteForceProbability enumerates every combination pair directly; usable
// only for very small inputs, it is the ground truth for the estimators.
func bruteForceProbability(x, y uncertain.SampleSeries, eps float64) float64 {
	n := x.Len()
	var xs, ys [][]float64
	var build func(s uncertain.SampleSeries, prefix []float64, i int, out *[][]float64)
	build = func(s uncertain.SampleSeries, prefix []float64, i int, out *[][]float64) {
		if i == n {
			cp := make([]float64, n)
			copy(cp, prefix)
			*out = append(*out, cp)
			return
		}
		for _, v := range s.Samples[i] {
			prefix[i] = v
			build(s, prefix, i+1, out)
		}
	}
	build(x, make([]float64, n), 0, &xs)
	build(y, make([]float64, n), 0, &ys)
	count, total := 0, 0
	for _, a := range xs {
		for _, b := range ys {
			var d2 float64
			for i := range a {
				d := a[i] - b[i]
				d2 += d * d
			}
			if math.Sqrt(d2) <= eps {
				count++
			}
			total++
		}
	}
	return float64(count) / float64(total)
}

func TestExactMatchesBruteForce(t *testing.T) {
	x := tinySeries(0,
		[]float64{0, 1},
		[]float64{2, 3},
		[]float64{-1, 0.5},
	)
	y := tinySeries(1,
		[]float64{0.5, 1.5},
		[]float64{2.5, 2},
		[]float64{0, -0.5},
	)
	for _, eps := range []float64{0, 0.5, 1, 1.5, 2, 3, 10} {
		want := bruteForceProbability(x, y, eps)
		got, err := Probability(x, y, eps, Options{Estimator: EstimatorExact})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("eps=%v: exact=%v bruteforce=%v", eps, got, want)
		}
	}
}

func TestConvolutionApproximatesExact(t *testing.T) {
	rng := stats.NewRand(4)
	samples := func() [][]float64 {
		out := make([][]float64, 6)
		for i := range out {
			row := make([]float64, 4)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			out[i] = row
		}
		return out
	}
	x := uncertain.SampleSeries{Samples: samples(), ID: 0}
	y := uncertain.SampleSeries{Samples: samples(), ID: 1}
	for _, eps := range []float64{1, 2, 3, 4} {
		exact, err := Probability(x, y, eps, Options{Estimator: EstimatorExact})
		if err != nil {
			t.Fatal(err)
		}
		conv, err := Probability(x, y, eps, Options{Estimator: EstimatorConvolution, Bins: 8192})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(conv, exact, 0.02) {
			t.Errorf("eps=%v: convolution=%v exact=%v", eps, conv, exact)
		}
	}
}

func TestMonteCarloApproximatesExact(t *testing.T) {
	x := tinySeries(0, []float64{0, 1}, []float64{2, 3})
	y := tinySeries(1, []float64{0.5, 1.5}, []float64{2.5, 2})
	for _, eps := range []float64{0.5, 1, 2} {
		exact, err := Probability(x, y, eps, Options{Estimator: EstimatorExact})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := Probability(x, y, eps, Options{Estimator: EstimatorMonteCarlo, MonteCarloSamples: 50000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(mc, exact, 0.02) {
			t.Errorf("eps=%v: montecarlo=%v exact=%v", eps, mc, exact)
		}
	}
}

func TestAutoFallsBackWhenTooLarge(t *testing.T) {
	// 20 timestamps x 5 samples: 5^10 per half >> cap, must fall back and
	// still produce a sane probability.
	rng := stats.NewRand(5)
	mk := func(id int) uncertain.SampleSeries {
		samples := make([][]float64, 20)
		for i := range samples {
			row := make([]float64, 5)
			for j := range row {
				row[j] = rng.NormFloat64() * 0.1
			}
			samples[i] = row
		}
		return uncertain.SampleSeries{Samples: samples, ID: id}
	}
	x, y := mk(0), mk(1)
	p, err := Probability(x, y, 2.0, Options{Estimator: EstimatorAuto, MaxExactCombos: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Errorf("probability out of range: %v", p)
	}
	// The exact estimator must refuse.
	if _, err := Probability(x, y, 2.0, Options{Estimator: EstimatorExact, MaxExactCombos: 1000}); err == nil {
		t.Error("exact estimator should report the cap excess")
	}
}

func TestProbabilityMonotoneInEps(t *testing.T) {
	x := tinySeries(0, []float64{0, 1}, []float64{1, 2}, []float64{0, 3})
	y := tinySeries(1, []float64{1, 2}, []float64{0, 1}, []float64{2, 2})
	prev := -1.0
	for eps := 0.0; eps <= 6; eps += 0.25 {
		p, err := Probability(x, y, eps, Options{Estimator: EstimatorExact})
		if err != nil {
			t.Fatal(err)
		}
		if p < prev-1e-12 {
			t.Errorf("probability must be monotone in eps: P(%v)=%v < %v", eps, p, prev)
		}
		prev = p
	}
	if prev != 1 {
		t.Errorf("probability at huge eps should be 1, got %v", prev)
	}
}

func TestProbabilityIdenticalCertainSeries(t *testing.T) {
	// One sample per timestamp makes the series certain.
	x := tinySeries(0, []float64{1}, []float64{2})
	p, err := Probability(x, x, 0, Options{Estimator: EstimatorExact})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("identical certain series at eps=0: p=%v, want 1", p)
	}
	// Convolution path with all-zero distances.
	p, err = Probability(x, x, 0, Options{Estimator: EstimatorConvolution})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("convolution on zero distances: p=%v, want 1", p)
	}
}

func TestProbabilityValidation(t *testing.T) {
	x := tinySeries(0, []float64{1})
	y := tinySeries(1, []float64{1}, []float64{2})
	if _, err := Probability(x, y, 1, Options{}); err == nil {
		t.Error("length mismatch should error")
	}
	empty := uncertain.SampleSeries{}
	if _, err := Probability(empty, empty, 1, Options{}); err == nil {
		t.Error("empty series should error")
	}
	// A timestamp without observations is invalid wherever it surfaces.
	bad := uncertain.SampleSeries{Samples: [][]float64{{}}, ID: 7}
	if _, err := Probability(x, bad, 1, Options{}); err == nil {
		t.Error("a candidate with an empty timestamp should error")
	}
	if _, err := BoundingIntervals(x).Prune(bad, 1); err == nil {
		t.Error("pruning against a candidate with an empty timestamp should error")
	}
	p, err := Probability(x, x, -1, Options{})
	if err != nil || p != 0 {
		t.Errorf("negative eps: p=%v err=%v, want 0, nil", p, err)
	}
}

func TestDTWRequiresMonteCarlo(t *testing.T) {
	x := tinySeries(0, []float64{1}, []float64{2})
	if _, err := Probability(x, x, 1, Options{UseDTW: true, Estimator: EstimatorExact}); err == nil {
		t.Error("DTW with exact estimator should error")
	}
	p, err := Probability(x, x, 0.5, Options{UseDTW: true, Estimator: EstimatorMonteCarlo, MonteCarloSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("DTW probability of identical certain series = %v, want 1", p)
	}
	// Auto with UseDTW routes to Monte Carlo.
	if _, err := Probability(x, x, 0.5, Options{UseDTW: true, MonteCarloSamples: 10}); err != nil {
		t.Errorf("auto+DTW should work via Monte Carlo: %v", err)
	}
}

func TestBounds(t *testing.T) {
	x := tinySeries(0, []float64{0, 1}) // interval [0, 1]
	y := tinySeries(1, []float64{3, 4}) // interval [3, 4]
	lo, hi, err := BoundingIntervals(x).Bounds(y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(lo, 2, 1e-12) { // closest: 1 vs 3
		t.Errorf("lo = %v, want 2", lo)
	}
	if !almostEqual(hi, 4, 1e-12) { // farthest: 0 vs 4
		t.Errorf("hi = %v, want 4", hi)
	}
	// Overlapping intervals give a zero lower bound.
	z := tinySeries(2, []float64{0.5, 2})
	lo, _, err = BoundingIntervals(x).Bounds(z)
	if err != nil || lo != 0 {
		t.Errorf("overlapping intervals: lo=%v err=%v, want 0", lo, err)
	}
	if _, _, err := BoundingIntervals(x).Bounds(tinySeries(3, []float64{1}, []float64{2})); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestBoundsContainAllDistances(t *testing.T) {
	rng := stats.NewRand(8)
	mk := func(id int) uncertain.SampleSeries {
		samples := make([][]float64, 4)
		for i := range samples {
			row := make([]float64, 3)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			samples[i] = row
		}
		return uncertain.SampleSeries{Samples: samples, ID: id}
	}
	x, y := mk(0), mk(1)
	lo, hi, err := BoundingIntervals(x).Bounds(y)
	if err != nil {
		t.Fatal(err)
	}
	// Exact probability at the bounds must be 0 just below lo and 1 at hi.
	pLo, _ := Probability(x, y, lo-1e-9, Options{Estimator: EstimatorExact})
	pHi, _ := Probability(x, y, hi, Options{Estimator: EstimatorExact})
	if pLo != 0 {
		t.Errorf("probability below the lower bound = %v, want 0", pLo)
	}
	if pHi != 1 {
		t.Errorf("probability at the upper bound = %v, want 1", pHi)
	}
}

func TestPrune(t *testing.T) {
	x := tinySeries(0, []float64{0, 1})
	y := tinySeries(1, []float64{3, 4})
	dec, err := BoundingIntervals(x).Prune(y, 10)
	if err != nil || dec != PruneAccept {
		t.Errorf("generous eps: dec=%v err=%v, want accept", dec, err)
	}
	dec, err = BoundingIntervals(x).Prune(y, 1)
	if err != nil || dec != PruneReject {
		t.Errorf("tiny eps: dec=%v err=%v, want reject", dec, err)
	}
	dec, err = BoundingIntervals(x).Prune(y, 3)
	if err != nil || dec != PruneUnknown {
		t.Errorf("straddling eps: dec=%v err=%v, want unknown", dec, err)
	}
}

func TestEstimatorString(t *testing.T) {
	names := map[Estimator]string{
		EstimatorAuto:        "auto",
		EstimatorExact:       "exact",
		EstimatorConvolution: "convolution",
		EstimatorMonteCarlo:  "montecarlo",
		Estimator(9):         "Estimator(9)",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
}

func TestExactHandlesOddSplit(t *testing.T) {
	// Odd number of timestamps exercises the n/2 split with unequal halves.
	x := tinySeries(0, []float64{0, 1}, []float64{1}, []float64{2, 0}, []float64{1}, []float64{0.5, 1.5})
	y := tinySeries(1, []float64{1}, []float64{0, 2}, []float64{1, 1.5}, []float64{0}, []float64{1})
	for _, eps := range []float64{1, 2, 3} {
		want := bruteForceProbability(x, y, eps)
		got, err := Probability(x, y, eps, Options{Estimator: EstimatorExact})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("eps=%v: got %v, want %v", eps, got, want)
		}
	}
}

// randomSampleSeries draws a sample series around a base walk.
func randomSampleSeries(rng *rand.Rand, id, n, samples int, spread, offset float64) uncertain.SampleSeries {
	rows := make([][]float64, n)
	base := offset
	for i := range rows {
		base += rng.NormFloat64() * 0.3
		row := make([]float64, samples)
		for j := range row {
			row[j] = base + rng.NormFloat64()*spread
		}
		rows[i] = row
	}
	return uncertain.SampleSeries{Samples: rows, ID: id}
}

// TestProbUpperBoundDominatesProbability: the per-timestamp sample-pair
// bound must never fall below the exact probability.
func TestProbUpperBoundDominatesProbability(t *testing.T) {
	rng := stats.NewRand(23)
	for trial := 0; trial < 30; trial++ {
		x := randomSampleSeries(rng, 0, 6, 3, 0.2, 0)
		y := randomSampleSeries(rng, 1, 6, 3, 0.2, rng.Float64()*2)
		for _, eps := range []float64{0.3, 1, 2, 4} {
			up, err := ProbUpperBound(x, y, eps)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := Probability(x, y, eps, Options{Estimator: EstimatorExact})
			if err != nil {
				t.Fatal(err)
			}
			if up < exact-1e-12 {
				t.Fatalf("trial %d eps=%v: upper bound %v below exact probability %v", trial, eps, up, exact)
			}
		}
	}
}

func TestProbUpperBoundEdgeCases(t *testing.T) {
	x := tinySeries(0, []float64{0, 0}, []float64{0, 0})
	y := tinySeries(1, []float64{5, 5}, []float64{5, 5})
	// Distance is exactly sqrt(50); any eps below excludes everything.
	up, err := ProbUpperBound(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if up != 0 {
		t.Errorf("disjoint far series: bound = %v, want 0", up)
	}
	if p, _ := ProbUpperBound(x, y, -1); p != 0 {
		t.Errorf("negative eps: bound = %v, want 0", p)
	}
	if _, err := ProbUpperBound(x, tinySeries(2, []float64{1}), 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := ProbUpperBound(uncertain.SampleSeries{}, y, 1); err == nil {
		t.Error("invalid series should error")
	}
	// Identical certain series: every materialisation is at distance 0.
	z := tinySeries(3, []float64{1, 1}, []float64{2, 2})
	if p, _ := ProbUpperBound(z, z, 0); p != 1 {
		t.Errorf("identical series at eps=0: bound = %v, want 1", p)
	}
}

// TestProbabilityCutoffAgreesWithProbability: a completed cutoff run must
// return exactly Probability's value; an abandoned one must imply the full
// estimate is below the cutoff — across every estimator.
func TestProbabilityCutoffAgreesWithProbability(t *testing.T) {
	rng := stats.NewRand(29)
	estimators := []Options{
		{Estimator: EstimatorExact},
		{Estimator: EstimatorConvolution, Bins: 256},
		{Estimator: EstimatorMonteCarlo, MonteCarloSamples: 400},
		{Bins: 256}, // Auto
	}
	for trial := 0; trial < 20; trial++ {
		x := randomSampleSeries(rng, 0, 8, 2, 0.2, 0)
		y := randomSampleSeries(rng, 1, 8, 2, 0.2, rng.Float64()*3)
		for _, opts := range estimators {
			for _, eps := range []float64{0.5, 2, 5} {
				full, err := Probability(x, y, eps, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, cutoff := range []float64{0.05, 0.5, 0.99} {
					p, complete, err := ProbabilityCutoff(x, y, eps, cutoff, opts)
					if err != nil {
						t.Fatal(err)
					}
					if complete {
						if p != full {
							t.Fatalf("estimator %v eps=%v cutoff=%v: completed cutoff run returned %v, Probability %v",
								opts.Estimator, eps, cutoff, p, full)
						}
						continue
					}
					if full >= cutoff {
						t.Fatalf("estimator %v eps=%v: abandoned at cutoff %v but full estimate is %v",
							opts.Estimator, eps, cutoff, full)
					}
				}
			}
		}
	}
}

func TestProbabilityCutoffNeverAbandonsAtMinusInf(t *testing.T) {
	rng := stats.NewRand(31)
	x := randomSampleSeries(rng, 0, 6, 3, 0.3, 0)
	y := randomSampleSeries(rng, 1, 6, 3, 0.3, 4)
	for _, opts := range []Options{{Estimator: EstimatorConvolution, Bins: 128}, {Estimator: EstimatorMonteCarlo, MonteCarloSamples: 200}} {
		p, complete, err := ProbabilityCutoff(x, y, 0.1, math.Inf(-1), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !complete {
			t.Fatalf("estimator %v: abandoned with cutoff -Inf (p=%v)", opts.Estimator, p)
		}
	}
}

func TestExactFeasible(t *testing.T) {
	small := tinySeries(0, []float64{0, 1}, []float64{1, 2}, []float64{3})
	if !(Options{}).ExactFeasible(small, small) {
		t.Error("tiny pair should be exactly countable")
	}
	if (Options{MaxExactCombos: 3}).ExactFeasible(small, small) {
		t.Error("cap of 3 cannot fit a 4-combination half")
	}
	if (Options{UseDTW: true}).ExactFeasible(small, small) {
		t.Error("DTW pairs are never exactly countable")
	}
	if (Options{Estimator: EstimatorConvolution}).ExactFeasible(small, small) {
		t.Error("a forced convolution estimator never refines exactly")
	}
	if (Options{Estimator: EstimatorMonteCarlo}).ExactFeasible(small, small) {
		t.Error("a forced Monte Carlo estimator never refines exactly")
	}
	if (Options{}).ExactFeasible(small, tinySeries(1, []float64{1})) {
		t.Error("length mismatch is not feasible")
	}
	// Feasibility must agree with the estimator actually taking the exact
	// path: a large pair falls back, and ExactFeasible must say so.
	rng := stats.NewRand(37)
	big := randomSampleSeries(rng, 2, 30, 4, 0.2, 0)
	if (Options{}).ExactFeasible(big, big) {
		t.Error("16^15 combinations per half cannot fit the default cap")
	}
}
