package munich

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// binnedCDFRef and convolutionProbabilityRef are the convolution estimator
// as it stood before the reachable-bin window, frozen: every step sweeps all
// bins, and the abandon test reads the partial CDF at eps^2. They are the
// reference the windowed kernel must reproduce bit for bit.
func binnedCDFRef(probs []float64, width, eps2 float64) float64 {
	var acc float64
	for j, p := range probs {
		upper := (float64(j) + 1) * width
		if upper <= eps2 {
			acc += p
			continue
		}
		lower := float64(j) * width
		if lower < eps2 {
			acc += p * (eps2 - lower) / width
		}
		break
	}
	if acc > 1 {
		acc = 1
	}
	return acc
}

func convolutionProbabilityRef(x, y uncertain.SampleSeries, eps, cutoff float64, bins int, done <-chan struct{}) (float64, bool, error) {
	n := x.Len()
	var maxSum float64
	multisets := make([][]float64, n)
	for i := 0; i < n; i++ {
		m := squaredDiffMultiset(x, y, i)
		multisets[i] = m
		_, hi := stats.MinMax(m)
		maxSum += hi
	}
	if maxSum == 0 {
		if eps >= 0 {
			return 1, true, nil
		}
		return 0, true, nil
	}
	eps2 := eps * eps
	width := maxSum / float64(bins)
	probs := make([]float64, bins)
	probs[0] = 1
	next := make([]float64, bins)
	for step, m := range multisets {
		if cancelled(done) {
			return 0, false, qerr.Cancelled(nil)
		}
		for i := range next {
			next[i] = 0
		}
		w := 1 / float64(len(m))
		for j, p := range probs {
			if p == 0 {
				continue
			}
			base := (float64(j) + 0.5) * width
			for _, v := range m {
				idx := int((base + v) / width)
				if idx >= bins {
					idx = bins - 1
				}
				next[idx] += p * w
			}
		}
		probs, next = next, probs
		if step < n-1 && binnedCDFRef(probs, width, eps2) < cutoff-convCutoffMargin {
			return 0, false, nil
		}
	}
	return binnedCDFRef(probs, width, eps2), true, nil
}

// convPair draws a seeded pair the way the benchmark's sampled corpus is
// shaped: a smooth base, 1 to maxSamples samples per timestamp around it
// (1 to maxSamples^2 taps a step, now and then with a repeated sample, so
// taps tie), values rounded to 4 decimals. spread sets how far apart the two
// series sit.
func convPair(rng *rand.Rand, n, maxSamples int, spread float64) (x, y uncertain.SampleSeries) {
	round := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	mk := func(id int, shift float64) uncertain.SampleSeries {
		samples := make([][]float64, n)
		for i := range samples {
			row := make([]float64, 1+rng.Intn(maxSamples))
			centre := math.Sin(0.2*float64(i)) + shift
			for k := range row {
				row[k] = round(centre + 0.25*rng.NormFloat64())
			}
			if rng.Intn(8) == 0 {
				row[len(row)-1] = row[0]
			}
			samples[i] = row
		}
		return uncertain.SampleSeries{Samples: samples, ID: id}
	}
	return mk(0, 0), mk(1, spread*rng.NormFloat64())
}

// edgePair builds a pair whose bin width is exactly 2 at the given bin count
// (bins/8 timestamps, each with a largest squared difference of 16) and
// whose other squared differences are multiples of the width — except that
// every fourth timestamp carries off: off = 1 and off = 9 sit exactly on a
// bin edge (an odd multiple of width/2 from the bin centres), off*off a
// rounding to either side lands a hair off one, where the scalar index
// int(((j+0.5)*width + v)/width) is not the same shift for every j.
func edgePair(bins int, off float64) (x, y uncertain.SampleSeries) {
	n := bins / 8
	xs, ys := make([][]float64, n), make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{0}
		ys[i] = []float64{4, float64(2 * (i % 3)), 2}
		if i%4 == 1 {
			ys[i][2] = off
		}
	}
	return uncertain.SampleSeries{Samples: xs, ID: 0}, uncertain.SampleSeries{Samples: ys, ID: 1}
}

// lookAhead is the reachable-bin table convolutionProbability computes for
// the pair, nil when the histogram is degenerate.
func lookAhead(x, y uncertain.SampleSeries, eps float64, bins int) []int {
	mins := make([]float64, x.Len())
	var maxSum float64
	for i := range mins {
		lo, hi := stats.MinMax(squaredDiffMultiset(x, y, i))
		mins[i] = lo
		maxSum += hi
	}
	if maxSum == 0 {
		return nil
	}
	last := make([]int, len(mins)+1)
	reachableBins(last, mins, maxSum/float64(bins), eps*eps, bins)
	return last
}

// convCase is one row of the differential table.
type convCase struct {
	name    string
	x, y    uncertain.SampleSeries
	eps     float64
	bins    int
	cutoffs []float64
	// edge marks an edgePair row; wantScalar says whether the shift test (no
	// step of these rows clamps) must send one of its steps to the scalar loop.
	edge, wantScalar bool
}

// convCases is the seeded table TestConvolutionMatchesReference and
// TestConvolutionConcurrent run: random pairs with eps across and beyond the
// bounding-interval bracket (below it nothing reaches eps^2, above it the
// readout sits in the clamping top bin), then the edge pairs.
func convCases(t *testing.T, pairs int) []convCase {
	rng := rand.New(rand.NewSource(23))
	finite := []float64{1e-12, 0.1, 0.5, 0.9, 1}
	binChoices := []int{16, 256, 4096}
	var out []convCase
	for trial := 0; trial < pairs; trial++ {
		n := 1 + rng.Intn(128)
		x, y := convPair(rng, n, 4+2*(trial%2), []float64{0, 0.05, 0.3, 1}[trial%4])
		lo, hi, err := BoundingIntervals(x).Bounds(y)
		if err != nil {
			t.Fatal(err)
		}
		// eps across [lo, hi] and slightly beyond both ends.
		eps := lo + (hi-lo)*(rng.Float64()*1.2-0.1)
		switch trial % 16 {
		case 0:
			eps = lo * 0.5 // nothing can reach eps^2
		case 1:
			eps = 0
		case 2:
			eps = hi * 1.01 // the readout is the clamping bin
		}
		if eps < 0 {
			eps = 0
		}
		bins := binChoices[trial%len(binChoices)]
		first := rng.Intn(len(finite))
		second := (first + 1 + rng.Intn(len(finite)-1)) % len(finite)
		out = append(out, convCase{
			name: fmt.Sprintf("trial %d (n=%d bins=%d eps=%g)", trial, n, bins, eps),
			x:    x, y: y, eps: eps, bins: bins, cutoffs: []float64{math.Inf(-1), finite[first], finite[second]},
		})
	}
	for _, bins := range binChoices {
		for _, off := range []float64{1, math.Nextafter(1, 2), math.Nextafter(1, 0), 3, 2} {
			x, y := edgePair(bins, off)
			out = append(out, convCase{
				name: fmt.Sprintf("edge pair (bins=%d off=%v)", bins, off),
				x:    x, y: y, eps: math.Sqrt(0.3 * 2 * float64(bins)), bins: bins, cutoffs: []float64{math.Inf(-1), 0.1, 0.9},
				edge: true, wantScalar: off != 2,
			})
		}
	}
	return out
}

// TestConvolutionMatchesReference is the differential test of the windowed,
// shifted-add convolution against the frozen full sweep.
func TestConvolutionMatchesReference(t *testing.T) {
	var completed, abandoned, refAbandoned, unreachable, clamped int
	// Each pair runs uncut and under two of the finite cutoffs; the full
	// sweep of the reference is what costs (~9x more under -race).
	pairs := 3000
	if testing.Short() {
		pairs = 400
	}
	fast0, scalar0 := convFast.Load(), convScalar.Load()
	for _, tc := range convCases(t, pairs) {
		x, y, eps, bins := tc.x, tc.y, tc.eps, tc.bins
		want, complete, err := convolutionProbabilityRef(x, y, eps, math.Inf(-1), bins, nil)
		if err != nil || !complete {
			t.Fatalf("%s: uncut reference: %v, complete=%v", tc.name, err, complete)
		}
		last := lookAhead(x, y, eps, bins)
		noReach := last != nil && last[0] < 0
		if last != nil && last[x.Len()] == bins-1 {
			clamped++
		} else if tc.edge {
			before := convScalar.Load()
			if _, _, err := convolutionProbability(x, y, eps, math.Inf(-1), bins, nil); err != nil {
				t.Fatal(err)
			}
			if fell := convScalar.Load() != before; fell != tc.wantScalar {
				t.Fatalf("%s: a step ran the scalar loop: %v, want %v", tc.name, fell, tc.wantScalar)
			}
		}
		for _, cutoff := range tc.cutoffs {
			name := fmt.Sprintf("%s cutoff=%g", tc.name, cutoff)
			refP, refComplete := want, true
			if !math.IsInf(cutoff, -1) {
				if refP, refComplete, err = convolutionProbabilityRef(x, y, eps, cutoff, bins, nil); err != nil {
					t.Fatal(err)
				}
			}
			p, ok, err := convolutionProbability(x, y, eps, cutoff, bins, nil)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case ok:
				completed++
				if math.Float64bits(p) != math.Float64bits(want) {
					t.Fatalf("%s: completed with %v (%#x), reference %v (%#x)", name, p, math.Float64bits(p), want, math.Float64bits(want))
				}
				if !refComplete {
					t.Fatalf("%s: completed where the reference abandons", name)
				}
			default:
				abandoned++
				if !(want < cutoff) {
					t.Fatalf("%s: abandoned, but the uncut value %v is not below the cutoff", name, want)
				}
			}
			if !refComplete {
				refAbandoned++
			}
			if noReach {
				// The unit mass itself is dropped: 0 either way, and
				// uncut both complete.
				unreachable++
				if p != 0 || refP != 0 || (math.IsInf(cutoff, -1) && !ok) {
					t.Fatalf("%s: nothing reaches eps^2: got (%v, %v), reference (%v, %v)", name, p, ok, refP, refComplete)
				}
			}
		}
	}
	fast, scalar := convFast.Load()-fast0, convScalar.Load()-scalar0
	t.Logf("%d pairs: %d completed, %d abandoned (reference %d), %d with no reachable bin, %d read in the clamping bin; %d steps as shifted adds, %d scalar",
		pairs, completed, abandoned, refAbandoned, unreachable, clamped, fast, scalar)
	if abandoned < refAbandoned || abandoned == 0 || unreachable == 0 || clamped == 0 {
		t.Fatalf("the table does not exercise the abandon paths or the clamp: %d abandoned (reference %d), %d unreachable, %d clamped", abandoned, refAbandoned, unreachable, clamped)
	}
	if fast == 0 || scalar == 0 {
		t.Fatalf("the table does not exercise both forms: %d steps as shifted adds, %d scalar", fast, scalar)
	}
}

// bracketSlack is the mass rounding MomentBracket leaves to its caller: the
// engine's probBoundMargin, against which it decides.
const bracketSlack = 1e-9

// TestMomentBracketBoundsTheEstimate holds MomentBracket to what it claims,
// pair by pair: lo <= p <= hi for the uncut estimate p of the convolution
// over every convCases row (bins 16/256/4096, eps below, across and above
// the bounding-interval bracket, the clamping rows, the edge pairs), of the
// exact estimator over short series, and of both over constant series, where
// the variance is 0 and the bracket closes on the answer.
func TestMomentBracketBoundsTheEstimate(t *testing.T) {
	type row struct {
		name string
		x, y uncertain.SampleSeries
		eps  float64
		opts Options
	}
	var rows []row
	for _, tc := range convCases(t, 3000) {
		rows = append(rows, row{tc.name, tc.x, tc.y, tc.eps, Options{Estimator: EstimatorConvolution, Bins: tc.bins}})
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		x, y := convPair(rng, 1+rng.Intn(12), 3, []float64{0, 0.3, 1}[trial%3])
		lo, hi, err := BoundingIntervals(x).Bounds(y)
		if err != nil {
			t.Fatal(err)
		}
		eps := max(0, lo+(hi-lo)*(rng.Float64()*1.2-0.1))
		bins := []int{16, 256, 4096}[trial%3]
		rows = append(rows, row{fmt.Sprintf("exact trial %d (n=%d bins=%d eps=%g)", trial, x.Len(), bins, eps), x, y, eps, Options{Estimator: EstimatorExact, Bins: bins}})
	}
	// Every squared difference of a constant pair is 0.25, so S = n/4. At 33
	// timestamps over 16 bins a step is 0.48 bins: each one rounds the bin
	// back to where it was, and the whole of S/w drifts away from it — the
	// worst case the n/2 of the margin is there for.
	for _, shape := range []struct{ n, bins int }{{1, 4096}, {7, 4096}, {128, 4096}, {33, 16}} {
		xs, ys := make([][]float64, shape.n), make([][]float64, shape.n)
		for i := range xs {
			c := math.Sin(0.3 * float64(i))
			xs[i], ys[i] = []float64{c, c, c}, []float64{c + 0.5, c + 0.5}
		}
		x, y, s := tinySeries(0, xs...), tinySeries(1, ys...), float64(shape.n)/4
		for _, f := range []float64{0.07, 0.5, 0.99, 1, 1.01, 2} {
			for _, est := range []Estimator{EstimatorConvolution, EstimatorAuto} {
				rows = append(rows, row{fmt.Sprintf("constant (n=%d bins=%d eps^2=%g*S %v)", shape.n, shape.bins, f, est), x, y, math.Sqrt(f * s), Options{Estimator: est, Bins: shape.bins}})
			}
		}
	}
	var decided, closed int
	for _, r := range rows {
		p, err := Probability(r.x, r.y, r.eps, r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		lo, hi := r.opts.MomentBracket(r.x, r.y, r.eps)
		if !(lo <= p+bracketSlack && p <= hi+bracketSlack) {
			t.Errorf("%s: estimate %v outside the bracket [%v, %v]", r.name, p, lo, hi)
		}
		if lo > 0 || hi < 1 {
			decided++
		}
		if hi-lo < 1e-6 {
			closed++
		}
	}
	t.Logf("%d pairs: the bracket is non-trivial on %d, closed on %d", len(rows), decided, closed)
	if decided < len(rows)/4 || closed < 12 {
		t.Fatalf("the table does not exercise the bracket: non-trivial on %d of %d pairs, closed on %d", decided, len(rows), closed)
	}
}

// TestMomentBracketTrivialWhereItDoesNotApply: sampling estimators, an exact
// count the cap refuses and a domain the convolution refuses get [0, 1], so
// the refine decides, or reports its error.
func TestMomentBracketTrivialWhereItDoesNotApply(t *testing.T) {
	x, y := convPair(rand.New(rand.NewSource(7)), 64, 3, 0)
	row := []float64{-1e154, 0, 1e154}
	for name, tc := range map[string]struct {
		x, y uncertain.SampleSeries
		opts Options
	}{
		"monte carlo":      {x, y, Options{Estimator: EstimatorMonteCarlo}},
		"dtw":              {x, y, Options{UseDTW: true}},
		"exact over cap":   {x, y, Options{Estimator: EstimatorExact, MaxExactCombos: 8}},
		"overflowing diff": {tinySeries(0, row), tinySeries(1, row), Options{}},
	} {
		if lo, hi := tc.opts.MomentBracket(tc.x, tc.y, 1e-3); lo != 0 || hi != 1 {
			t.Errorf("%s: bracket [%v, %v], want [0, 1]", name, lo, hi)
		}
	}
}

// TestConvolutionConcurrent shares the scratch pool between 8 goroutines
// (under -race in CI): every call must return what the serial run returned.
func TestConvolutionConcurrent(t *testing.T) {
	type answer struct {
		p  float64
		ok bool
	}
	cases := convCases(t, 48)
	run := func() []answer {
		var out []answer
		for _, tc := range cases {
			for _, cutoff := range tc.cutoffs {
				p, ok, err := convolutionProbability(tc.x, tc.y, tc.eps, cutoff, tc.bins, nil)
				if err != nil {
					t.Error(err)
				}
				out = append(out, answer{p, ok})
			}
		}
		return out
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := run(); !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: answers differ from the serial run", g)
			}
		}()
	}
	wg.Wait()
}

// TestConvolutionServedShape gates the refine uncertserve runs (128
// timestamps x 3 samples a side, EstimatorAuto over 4096 bins) on its
// allocations with a warm pool: a handful per call, none per timestamp.
func TestConvolutionServedShape(t *testing.T) {
	x, y := convPair(rand.New(rand.NewSource(24)), 128, 3, 0.3)
	for i := range x.Samples {
		x.Samples[i], y.Samples[i] = append(x.Samples[i], 0, 0)[:3], append(y.Samples[i], 0, 0)[:3]
	}
	lo, hi, err := BoundingIntervals(x).Bounds(y)
	if err != nil {
		t.Fatal(err)
	}
	eps := lo + 0.4*(hi-lo)
	for _, cutoff := range []float64{math.Inf(-1), 0.1} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := ProbabilityCutoff(x, y, eps, cutoff, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("cutoff %v: %v allocations per refine of 128 timestamps, want <= 4", cutoff, allocs)
		}
	}
}

// TestConvolutionRejectsOverflowingDomain: finite samples whose squared
// differences overflow leave no bin width; the estimator must say so with a
// typed error, not index a histogram with int(NaN).
func TestConvolutionRejectsOverflowingDomain(t *testing.T) {
	row := [][]float64{{-1e154, 0, 1e154}}
	x, y := tinySeries(0, row[0], row[0]), tinySeries(1, row[0], row[0])
	for _, bins := range []int{16, 4096} {
		if _, _, err := convolutionProbability(x, y, 1e154, 0.1, bins, nil); !errors.Is(err, qerr.ErrBadRequest) {
			t.Errorf("bins=%d: err = %v, want ErrBadRequest", bins, err)
		}
	}
	// Squares that vanish into the subnormals have no usable width either.
	z := tinySeries(2, []float64{1e-160}, []float64{0})
	if _, _, err := convolutionProbability(tinySeries(3, []float64{0}, []float64{0}), z, 1, 0.1, 16, nil); !errors.Is(err, qerr.ErrBadRequest) {
		t.Errorf("subnormal width: err = %v, want ErrBadRequest", err)
	}
}
