package munich

import (
	"fmt"
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

// exact and convolve force one estimator, as Probability runs it; convolve
// never abandons.
func exact(x, y uncertain.SampleSeries, eps float64) (float64, error) {
	return exactProbability(x, y, eps, nil)
}

func convolve(x, y uncertain.SampleSeries, eps float64, bins int) (float64, error) {
	p, _, _, err := convolutionProbability(x, y, eps, math.Inf(-1), bins, nil)
	return p, err
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
		got, err := exact(x, y, eps)
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
		exact, err := exact(x, y, eps)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := convolve(x, y, eps, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(conv, exact, 0.02) {
			t.Errorf("eps=%v: convolution=%v exact=%v", eps, conv, exact)
		}
	}
}

func TestAutoFallsBackWhenTooLarge(t *testing.T) {
	// 20 timestamps x 5 samples: 25^10 per half >> cap, must fall back and
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
	p, err := Probability(x, y, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Errorf("probability out of range: %v", p)
	}
	// The exact count must refuse.
	if _, err := exact(x, y, 2.0); err == nil {
		t.Error("exact count should report the cap excess")
	}
}

// TestEstimatorPolicy pins the one policy Probability runs: a pair whose
// meet-in-the-middle halves both fit maxExactCombos is counted exactly, bit
// for bit; one timestamp more and it convolves over the default bins, and
// ExactFeasible flips with it.
func TestEstimatorPolicy(t *testing.T) {
	// 3 x 3 samples are 9 sums a timestamp: 12 timestamps split 6 + 6, 9^6
	// sums a half, under the cap; 13 split 6 + 7, and 9^7 is over it.
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{12, 13} {
		x, y := shapedPair(rng, n, func() int { return 3 }, func() int { return 3 }, 0.3)
		lo, hi, err := BoundingIntervals(x).Bounds(BoundingIntervals(y))
		if err != nil {
			t.Fatal(err)
		}
		fits := n == 12
		if got := ExactFeasible(x, y); got != fits {
			t.Fatalf("n=%d: ExactFeasible = %v, want %v", n, got, fits)
		}
		for _, eps := range []float64{lo + 0.3*(hi-lo), lo + 0.6*(hi-lo)} {
			got, err := Probability(x, y, eps, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			if fits {
				want, err = exact(x, y, eps)
			} else {
				want, err = convolve(x, y, eps, defaultBins)
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d eps=%v: Probability %v, the policy's estimator %v", n, eps, got, want)
			}
		}
	}
	// The flip sits exactly at the cap: 1 x 2 samples are 2 sums a
	// timestamp, so 42 timestamps make two halves of exactly 2^21 sums.
	one, two := func() int { return 1 }, func() int { return 2 }
	for n, fits := range map[int]bool{42: true, 43: false} {
		x, y := shapedPair(rng, n, one, two, 0)
		if got := ExactFeasible(x, y); got != fits {
			t.Errorf("n=%d (1 x 2 samples): ExactFeasible = %v, want %v", n, got, fits)
		}
	}
}

func TestProbabilityMonotoneInEps(t *testing.T) {
	x := tinySeries(0, []float64{0, 1}, []float64{1, 2}, []float64{0, 3})
	y := tinySeries(1, []float64{1, 2}, []float64{0, 1}, []float64{2, 2})
	prev := -1.0
	for eps := 0.0; eps <= 6; eps += 0.25 {
		p, err := exact(x, y, eps)
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
	p, err := exact(x, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("identical certain series at eps=0: p=%v, want 1", p)
	}
	// Convolution path with all-zero distances.
	p, err = convolve(x, x, 0, defaultBins)
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
	if _, err := BoundingIntervals(x).Prune(BoundingIntervals(y), 1); err == nil {
		t.Error("pruning against a candidate of another length should error")
	}
	p, err := Probability(x, x, -1, Options{})
	if err != nil || p != 0 {
		t.Errorf("negative eps: p=%v err=%v, want 0, nil", p, err)
	}
}

func TestBounds(t *testing.T) {
	x := tinySeries(0, []float64{0, 1}) // interval [0, 1]
	y := tinySeries(1, []float64{3, 4}) // interval [3, 4]
	lo, hi, err := BoundingIntervals(x).Bounds(BoundingIntervals(y))
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
	lo, _, err = BoundingIntervals(x).Bounds(BoundingIntervals(z))
	if err != nil || lo != 0 {
		t.Errorf("overlapping intervals: lo=%v err=%v, want 0", lo, err)
	}
	if _, _, err := BoundingIntervals(x).Bounds(BoundingIntervals(tinySeries(3, []float64{1}, []float64{2}))); err == nil {
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
	lo, hi, err := BoundingIntervals(x).Bounds(BoundingIntervals(y))
	if err != nil {
		t.Fatal(err)
	}
	// Exact probability at the bounds must be 0 just below lo and 1 at hi.
	pLo, _ := exact(x, y, lo-1e-9)
	pHi, _ := exact(x, y, hi)
	if pLo != 0 {
		t.Errorf("probability below the lower bound = %v, want 0", pLo)
	}
	if pHi != 1 {
		t.Errorf("probability at the upper bound = %v, want 1", pHi)
	}
}

func TestPrune(t *testing.T) {
	x := BoundingIntervals(tinySeries(0, []float64{0, 1}))
	y := BoundingIntervals(tinySeries(1, []float64{3, 4}))
	dec, err := x.Prune(y, 10)
	if err != nil || dec != PruneAccept {
		t.Errorf("generous eps: dec=%v err=%v, want accept", dec, err)
	}
	dec, err = x.Prune(y, 1)
	if err != nil || dec != PruneReject {
		t.Errorf("tiny eps: dec=%v err=%v, want reject", dec, err)
	}
	dec, err = x.Prune(y, 3)
	if err != nil || dec != PruneUnknown {
		t.Errorf("straddling eps: dec=%v err=%v, want unknown", dec, err)
	}
}

// TestIntervalPruneMatchesBounds holds the abandoning Prune to the decision
// of Bounds' two whole sums — accept when hi <= eps, reject when lo > eps —
// over the convCases pairs at their own eps, and over pairs of 1, 15, 16, 17
// and 128 timestamps, constant series and series whose differences overflow
// to +-Inf at eps on and one ulp either side
// of lo, hi and the root of the lower sum over the first stride (where an
// early reject is decided), plus 0, -1, +Inf and NaN.
func TestIntervalPruneMatchesBounds(t *testing.T) {
	type pair struct {
		name string
		x, y uncertain.SampleSeries
		eps  []float64
	}
	var pairs []pair
	for _, tc := range convCases(t, 3000) {
		pairs = append(pairs, pair{tc.name, tc.x, tc.y, []float64{tc.eps}})
	}
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 15, 16, 17, 128} {
		for trial := 0; trial < 40; trial++ {
			x, y := convPair(rng, n, 3, []float64{0, 0.05, 0.3, 1, 3}[trial%5])
			pairs = append(pairs, pair{fmt.Sprintf("n=%d trial %d", n, trial), x, y, nil})
		}
		// Constant pairs: every interval is a point, so lo == hi.
		xs, ys := make([][]float64, n), make([][]float64, n)
		for i := range xs {
			c := math.Sin(0.3 * float64(i))
			xs[i], ys[i] = []float64{c, c}, []float64{c + 0.5, c + 0.5, c + 0.5}
		}
		pairs = append(pairs, pair{fmt.Sprintf("constant n=%d", n), tinySeries(0, xs...), tinySeries(1, ys...), nil})
		pairs = append(pairs, pair{fmt.Sprintf("identical constant n=%d", n), tinySeries(0, xs...), tinySeries(1, xs...), nil})
		// Finite samples whose differences overflow: x far below y, far
		// above it, and a wide interval across a narrow one, in turn.
		for i := range xs {
			big := math.MaxFloat64 / float64(1+i%5)
			lo, hi := []float64{-big, -0.9 * big}, []float64{0.9 * big, big}
			xs[i], ys[i] = [][]float64{lo, hi, {-big, big}}[i%3], [][]float64{hi, lo, {1, 2}}[i%3]
		}
		pairs = append(pairs, pair{fmt.Sprintf("overflowing n=%d", n), tinySeries(0, xs...), tinySeries(1, ys...), nil})
	}
	around := func(v float64) []float64 {
		return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
	}
	decisions := map[PruneDecision]int{}
	early := 0
	for _, p := range pairs {
		x, y := BoundingIntervals(p.x), BoundingIntervals(p.y)
		lo, hi, err := x.Bounds(y)
		if err != nil {
			t.Fatal(err)
		}
		stride := min(pruneStride, len(x.Lo))
		first, _, err := Intervals{x.Lo[:stride], x.Hi[:stride]}.Bounds(Intervals{y.Lo[:stride], y.Hi[:stride]})
		if err != nil {
			t.Fatal(err)
		}
		eps := append(p.eps, 0, -1, math.Inf(1), math.NaN())
		for _, v := range []float64{lo, hi, first} {
			eps = append(eps, around(v)...)
		}
		for _, e := range eps {
			want := PruneUnknown
			switch {
			case hi <= e:
				want = PruneAccept
			case lo > e:
				want = PruneReject
			}
			got, err := x.Prune(y, e)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s eps=%v: Prune decides %v, Bounds' sums [%v, %v] decide %v", p.name, e, got, lo, hi, want)
			}
			decisions[got]++
			if got == PruneReject && len(x.Lo) >= pruneStride && first > e {
				early++
			}
		}
	}
	t.Logf("%d pairs: %d accepted, %d rejected (%d of them at the first stride's check), %d left open",
		len(pairs), decisions[PruneAccept], decisions[PruneReject], early, decisions[PruneUnknown])
	if decisions[PruneAccept] == 0 || decisions[PruneUnknown] == 0 || early == 0 || early == decisions[PruneReject] {
		t.Fatal("the table must accept, leave open, and reject both at the first stride's check and later")
	}
}

func TestExactHandlesOddSplit(t *testing.T) {
	// Odd number of timestamps exercises the n/2 split with unequal halves.
	x := tinySeries(0, []float64{0, 1}, []float64{1}, []float64{2, 0}, []float64{1}, []float64{0.5, 1.5})
	y := tinySeries(1, []float64{1}, []float64{0, 2}, []float64{1, 1.5}, []float64{0}, []float64{1})
	for _, eps := range []float64{1, 2, 3} {
		want := bruteForceProbability(x, y, eps)
		got, err := exact(x, y, eps)
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
			up, err := ProbUpperBound(x, y, BoundingIntervals(x), BoundingIntervals(y), eps)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := exact(x, y, eps)
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
	bound := func(x, y uncertain.SampleSeries, eps float64) (float64, error) {
		return ProbUpperBound(x, y, BoundingIntervals(x), BoundingIntervals(y), eps)
	}
	// Distance is exactly sqrt(50); any eps below excludes everything.
	up, err := bound(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if up != 0 {
		t.Errorf("disjoint far series: bound = %v, want 0", up)
	}
	if p, _ := bound(x, y, -1); p != 0 {
		t.Errorf("negative eps: bound = %v, want 0", p)
	}
	if _, err := bound(x, tinySeries(2, []float64{1}), 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := bound(uncertain.SampleSeries{}, y, 1); err == nil {
		t.Error("invalid series should error")
	}
	if _, err := ProbUpperBound(x, y, BoundingIntervals(x), BoundingIntervals(tinySeries(2, []float64{1})), 1); err == nil {
		t.Error("intervals of another length should error")
	}
	// Identical certain series: every materialisation is at distance 0.
	z := tinySeries(3, []float64{1, 1}, []float64{2, 2})
	if p, _ := bound(z, z, 0); p != 1 {
		t.Errorf("identical series at eps=0: bound = %v, want 1", p)
	}
}

// TestProbabilityCutoffAgreesWithProbability: a completed cutoff run must
// return exactly the uncut value; an abandoned one must imply the full
// estimate is below the cutoff — for both estimators.
func TestProbabilityCutoffAgreesWithProbability(t *testing.T) {
	rng := stats.NewRand(29)
	estimators := map[string]func(x, y uncertain.SampleSeries, eps, cutoff float64) (float64, bool, error){
		"exact": func(x, y uncertain.SampleSeries, eps, cutoff float64) (float64, bool, error) {
			return ProbabilityCutoff(x, y, eps, cutoff, Options{})
		},
		"convolution": func(x, y uncertain.SampleSeries, eps, cutoff float64) (float64, bool, error) {
			p, complete, _, err := convolutionProbability(x, y, eps, cutoff, 256, nil)
			return p, complete, err
		},
	}
	for trial := 0; trial < 20; trial++ {
		x := randomSampleSeries(rng, 0, 8, 2, 0.2, 0)
		y := randomSampleSeries(rng, 1, 8, 2, 0.2, rng.Float64()*3)
		for name, estimate := range estimators {
			for _, eps := range []float64{0.5, 2, 5} {
				full, _, err := estimate(x, y, eps, math.Inf(-1))
				if err != nil {
					t.Fatal(err)
				}
				for _, cutoff := range []float64{0.05, 0.5, 0.99} {
					p, complete, err := estimate(x, y, eps, cutoff)
					if err != nil {
						t.Fatal(err)
					}
					if complete {
						if p != full {
							t.Fatalf("%s eps=%v cutoff=%v: completed cutoff run returned %v, uncut %v",
								name, eps, cutoff, p, full)
						}
						continue
					}
					if full >= cutoff {
						t.Fatalf("%s eps=%v: abandoned at cutoff %v but full estimate is %v",
							name, eps, cutoff, full)
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
	p, complete, _, err := convolutionProbability(x, y, 0.1, math.Inf(-1), 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatalf("convolution abandoned with cutoff -Inf (p=%v)", p)
	}
}

func TestExactFeasible(t *testing.T) {
	small := tinySeries(0, []float64{0, 1}, []float64{1, 2}, []float64{3})
	if !ExactFeasible(small, small) {
		t.Error("tiny pair should be exactly countable")
	}
	if ExactFeasible(small, tinySeries(1, []float64{1})) {
		t.Error("length mismatch is not feasible")
	}
	// Feasibility must agree with the estimator actually taking the exact
	// path: a large pair falls back, and ExactFeasible must say so.
	rng := stats.NewRand(37)
	big := randomSampleSeries(rng, 2, 30, 4, 0.2, 0)
	if ExactFeasible(big, big) {
		t.Error("16^15 combinations per half cannot fit the cap")
	}
}

// BenchmarkEstimators compares the exact meet-in-the-middle count with the
// histogram convolution at the default bins on the same 8 x 4 pair, small
// enough that the policy counts it exactly.
func BenchmarkEstimators(b *testing.B) {
	rng := stats.NewRand(4)
	mk := func(id int) uncertain.SampleSeries {
		samples := make([][]float64, 8)
		for i := range samples {
			row := make([]float64, 4)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			samples[i] = row
		}
		return uncertain.SampleSeries{Samples: samples, ID: id}
	}
	x, y := mk(0), mk(1)
	for _, est := range []struct {
		name     string
		estimate func() (float64, error)
	}{
		{"exact", func() (float64, error) { return exact(x, y, 3) }},
		{"convolution", func() (float64, error) { return convolve(x, y, 3, defaultBins) }},
	} {
		b.Run(est.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := est.estimate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
