package munich

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// add sums another convolution's tally into c.
func (c *convCount) add(o convCount) {
	c.interior += o.interior
	c.edgesOnly += o.edgesOnly
	c.scalar += o.scalar
}

// convPair draws a seeded pair the way the benchmark's sampled corpus is
// shaped: a smooth base, 1 to maxSamples samples per timestamp around it
// (1 to maxSamples^2 taps a step, now and then with a repeated sample, so
// taps tie), values rounded to 4 decimals. spread sets how far apart the two
// series sit.
func convPair(rng *rand.Rand, n, maxSamples int, spread float64) (x, y uncertain.SampleSeries) {
	count := func() int { return 1 + rng.Intn(maxSamples) }
	return shapedPair(rng, n, count, count, spread)
}

// shapedPair is convPair with the sample counts per timestamp drawn by nx
// and ny.
func shapedPair(rng *rand.Rand, n int, nx, ny func() int, spread float64) (x, y uncertain.SampleSeries) {
	round := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	mk := func(id int, shift float64, count func() int) uncertain.SampleSeries {
		samples := make([][]float64, n)
		for i := range samples {
			row := make([]float64, count())
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
	return mk(0, 0, nx), mk(1, spread*rng.NormFloat64(), ny)
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

// tapShapes are the samples per timestamp (x by y) of the fixed-shape rows
// of convCases: 1, 2, 3, 4, 5, 8, 9 and 16 taps a step, so addTaps runs
// every tap count the served shapes reach, and past them.
var tapShapes = [][2]int{{1, 1}, {1, 2}, {1, 3}, {2, 2}, {1, 5}, {2, 4}, {3, 3}, {4, 4}}

// convCases is the seeded table TestConvolutionMatchesReference and
// TestConvolutionConcurrent run: random pairs with eps across and beyond the
// bounding-interval bracket (below it nothing reaches eps^2, above it the
// readout sits in the clamping top bin), pairs of every tapShapes shape
// (their first steps convolve a window narrower than the taps' spread), then
// the edge pairs.
func convCases(t *testing.T, pairs int) []convCase {
	rng := rand.New(rand.NewSource(23))
	finite := []float64{1e-12, 0.1, 0.5, 0.9, 1}
	binChoices := []int{16, 256, 4096}
	var out []convCase
	for trial := 0; trial < pairs+6*len(tapShapes); trial++ {
		n := 1 + rng.Intn(128)
		var x, y uncertain.SampleSeries
		if trial < pairs {
			x, y = convPair(rng, n, 4+2*(trial%2), []float64{0, 0.05, 0.3, 1}[trial%4])
		} else {
			shape := tapShapes[(trial-pairs)%len(tapShapes)]
			x, y = shapedPair(rng, n, func() int { return shape[0] }, func() int { return shape[1] }, []float64{0.05, 0.3, 1}[trial%3])
		}
		lo, hi, err := BoundingIntervals(x).Bounds(BoundingIntervals(y))
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
	var ran convCount // every call's steps
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
			_, _, steps, err := convolutionProbability(x, y, eps, math.Inf(-1), bins, nil)
			if err != nil {
				t.Fatal(err)
			}
			ran.add(steps)
			if fell := steps.scalar > 0; fell != tc.wantScalar {
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
			p, ok, steps, err := convolutionProbability(x, y, eps, cutoff, bins, nil)
			if err != nil {
				t.Fatal(err)
			}
			ran.add(steps)
			switch {
			case ok:
				// The kernel reads its CDF every convReadStride steps, the
				// reference after every step: it may run on past a pair the
				// reference abandoned, but must then land below the cutoff.
				completed++
				if math.Float64bits(p) != math.Float64bits(want) {
					t.Fatalf("%s: completed with %v (%#x), reference %v (%#x)", name, p, math.Float64bits(p), want, math.Float64bits(want))
				}
				if !refComplete && !(p < cutoff) {
					t.Fatalf("%s: the reference abandons, but the completed value %v is not below the cutoff", name, p)
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
	interior, edgesOnly, scalar := ran.interior, ran.edgesOnly, ran.scalar
	t.Logf("%d pairs: %d completed, %d abandoned (reference %d), %d with no reachable bin, %d read in the clamping bin; steps as shifted adds: %d with an interior, %d without one; %d scalar",
		pairs, completed, abandoned, refAbandoned, unreachable, clamped, interior, edgesOnly, scalar)
	if abandoned == 0 || unreachable == 0 || clamped == 0 {
		t.Fatalf("the table does not exercise the abandon paths or the clamp: %d abandoned (reference %d), %d unreachable, %d clamped", abandoned, refAbandoned, unreachable, clamped)
	}
	if interior == 0 || edgesOnly == 0 || scalar == 0 {
		t.Fatalf("the table does not exercise every form: %d steps as shifted adds with an interior, %d without one, %d scalar", interior, edgesOnly, scalar)
	}
}

// bracketSlack is the mass rounding MomentBracket leaves to its caller: the
// engine's probBoundMargin, against which it decides.
const bracketSlack = 1e-9

// sideNames names bracketSides' bounds.
var sideNames = [numSides]string{"Cantelli", "Bennett", "Berry–Esseen"}

// TestMomentBracketBoundsTheEstimate holds MomentBracket to what it claims,
// pair by pair and bound by bound: lo <= p <= hi for the uncut estimate p of
// the convolution over every convCases row (bins 16/256/4096, eps below,
// across and above the bounding-interval bracket, the clamping rows, the edge
// pairs), of the exact count over short series, and of the convolution and
// Probability over constant series, where the variance is 0 and Cantelli
// closes the bracket on the answer. Each of Cantelli, Bennett and
// Berry–Esseen must hold alone, and Bennett and Berry–Esseen must each set an
// end of some bracket, tighter than Cantelli; where the pass computes a
// variance of exactly 0 (one sample a side) they must fall back to [0, 1],
// leaving Cantelli. MomentBracket must allocate nothing.
func TestMomentBracketBoundsTheEstimate(t *testing.T) {
	type row struct {
		name string
		x, y uncertain.SampleSeries
		eps  float64
		bins int
		// estimate names the value the bracket must hold: the convolution
		// at bins, the exact count, or Probability's.
		estimate string
	}
	var rows []row
	for _, tc := range convCases(t, 3000) {
		rows = append(rows, row{tc.name, tc.x, tc.y, tc.eps, tc.bins, "convolution"})
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		x, y := convPair(rng, 1+rng.Intn(12), 3, []float64{0, 0.3, 1}[trial%3])
		lo, hi, err := BoundingIntervals(x).Bounds(BoundingIntervals(y))
		if err != nil {
			t.Fatal(err)
		}
		eps := max(0, lo+(hi-lo)*(rng.Float64()*1.2-0.1))
		bins := []int{16, 256, 4096}[trial%3]
		rows = append(rows, row{fmt.Sprintf("exact trial %d (n=%d bins=%d eps=%g)", trial, x.Len(), bins, eps), x, y, eps, bins, "exact"})
	}
	// Every squared difference of a constant pair is 0.25, so S = n/4. At 33
	// timestamps over 16 bins a step is 0.48 bins: each one rounds the bin
	// back to where it was, and the whole of S/w drifts away from it — the
	// worst case the n/2 of the margin is there for.
	// With one sample a side the pass computes a variance of exactly 0, where
	// Bennett and Berry–Esseen do not apply.
	for _, shape := range []struct{ n, bins, sx, sy int }{{1, 4096, 3, 2}, {7, 4096, 3, 2}, {128, 4096, 3, 2}, {33, 16, 3, 2}, {7, 4096, 1, 1}, {128, 4096, 1, 1}} {
		xs, ys := make([][]float64, shape.n), make([][]float64, shape.n)
		for i := range xs {
			c := math.Sin(0.3 * float64(i))
			xs[i], ys[i] = slices.Repeat([]float64{c}, shape.sx), slices.Repeat([]float64{c + 0.5}, shape.sy)
		}
		x, y, s := tinySeries(0, xs...), tinySeries(1, ys...), float64(shape.n)/4
		for _, f := range []float64{0.07, 0.5, 0.99, 1, 1.01, 2} {
			for _, est := range []string{"convolution", "probability"} {
				rows = append(rows, row{fmt.Sprintf("constant (n=%d bins=%d %dx%d samples eps^2=%g*S %s)", shape.n, shape.bins, shape.sx, shape.sy, f, est), x, y, math.Sqrt(f * s), shape.bins, est})
			}
		}
	}
	var decided, closed, degenerate int
	var violations [numSides]int
	var sets [numSides][2]int // brackets whose lo / hi a side sets, tighter than Cantelli
	for _, r := range rows {
		var p float64
		var err error
		switch r.estimate {
		case "convolution":
			p, err = convolve(r.x, r.y, r.eps, r.bins)
		case "exact":
			p, err = exact(r.x, r.y, r.eps)
		default:
			p, err = Probability(r.x, r.y, r.eps, Options{Bins: r.bins})
		}
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		o := Options{Bins: r.bins}
		sides := o.bracketSides(r.x, r.y, r.eps)
		for k, s := range sides {
			if !(s[0] <= p+bracketSlack && p <= s[1]+bracketSlack) {
				violations[k]++
				t.Errorf("%s: estimate %v outside the %s bracket [%v, %v]", r.name, p, sideNames[k], s[0], s[1])
			}
		}
		if certain(r.x, r.y) {
			degenerate++
			if sides[sideBennett] != [2]float64{0, 1} || sides[sideBerryEsseen] != [2]float64{0, 1} {
				t.Errorf("%s: zero variance, yet Bennett %v and Berry–Esseen %v are not [0, 1]", r.name, sides[sideBennett], sides[sideBerryEsseen])
			}
		}
		lo, hi := o.MomentBracket(r.x, r.y, r.eps)
		if !(lo <= p+bracketSlack && p <= hi+bracketSlack) {
			t.Errorf("%s: estimate %v outside the bracket [%v, %v]", r.name, p, lo, hi)
		}
		for k := sideBennett; k < numSides; k++ {
			if sides[k][0] == lo && lo > sides[sideCantelli][0] {
				sets[k][0]++
			}
			if sides[k][1] == hi && hi < sides[sideCantelli][1] {
				sets[k][1]++
			}
		}
		if lo > 0 || hi < 1 {
			decided++
		}
		if hi-lo < 1e-6 {
			closed++
		}
	}
	t.Logf("%d pairs: the bracket is non-trivial on %d, closed on %d, of zero variance %d; violations by side %v; lo / hi set tighter than Cantelli by Bennett %v, by Berry–Esseen %v",
		len(rows), decided, closed, degenerate, violations, sets[sideBennett], sets[sideBerryEsseen])
	if decided < len(rows)/4 || closed < 12 || degenerate == 0 {
		t.Fatalf("the table does not exercise the bracket: non-trivial on %d of %d pairs, closed on %d, of zero variance %d", decided, len(rows), closed, degenerate)
	}
	for k := sideBennett; k < numSides; k++ {
		if sets[k][0] == 0 || sets[k][1] == 0 {
			t.Fatalf("the table does not exercise %s on both ends: it sets %v (lo, hi) tighter than Cantelli", sideNames[k], sets[k])
		}
	}
	x, y := convPair(rand.New(rand.NewSource(27)), 128, 3, 0.3)
	if allocs := testing.AllocsPerRun(20, func() { Options{}.MomentBracket(x, y, 10) }); allocs != 0 {
		t.Errorf("MomentBracket allocates %v objects per call, want 0", allocs)
	}
}

// certain reports whether every timestamp holds one sample a side: S is then
// one value, and MomentBracket's pass computes a variance of exactly 0 (a
// mean of one term is that term).
func certain(x, y uncertain.SampleSeries) bool {
	for i := range x.Samples {
		if len(x.Samples[i]) != 1 || len(y.Samples[i]) != 1 {
			return false
		}
	}
	return true
}

// TestMomentBracketTrivialWhereItDoesNotApply: a length mismatch, a
// negative eps and a domain the convolution refuses get [0, 1], so the
// refine decides, or reports its error.
func TestMomentBracketTrivialWhereItDoesNotApply(t *testing.T) {
	x, y := convPair(rand.New(rand.NewSource(7)), 64, 3, 0)
	short, _ := convPair(rand.New(rand.NewSource(8)), 63, 3, 0)
	row := []float64{-1e154, 0, 1e154}
	for name, tc := range map[string]struct {
		x, y uncertain.SampleSeries
		eps  float64
	}{
		"length mismatch":  {x, short, 1},
		"negative eps":     {x, y, -1},
		"overflowing diff": {tinySeries(0, row), tinySeries(1, row), 1e-3},
		"coincident":       {tinySeries(0, []float64{2}, []float64{3}), tinySeries(1, []float64{2}, []float64{3}), 1},
	} {
		if lo, hi := (Options{}).MomentBracket(tc.x, tc.y, tc.eps); lo != 0 || hi != 1 {
			t.Errorf("%s: bracket [%v, %v], want [0, 1]", name, lo, hi)
		}
	}
}

// FuzzMomentBracket holds MomentBracket to the estimate it brackets on
// fuzzed pairs. Each byte of shape is one timestamp (at most 24) and sets its
// sample counts, 1 to 4 a side; the samples are int8s drawn from vals in turn
// times scale (a scale that is zero, not finite or above 1e154 reads as 1);
// wide picks 256 bins over 16; and eps sits at pos along the bounding
// intervals' distance bracket [lo, hi] (clamped to [-0.5, 1.5]: below, across
// and above the mass; NaN reads 0.5). Where the estimator refuses the domain
// the bracket must be [0, 1]. Exact counts of more than 2^20 combinations
// are skipped.
func FuzzMomentBracket(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, vals []byte, scale float64, wide bool, pos float64) {
		n := min(len(shape), 24)
		if n == 0 {
			return
		}
		if !(math.Abs(scale) <= 1e154) || scale == 0 {
			scale = 1
		}
		next := 0
		draw := func(count int) []float64 {
			row := make([]float64, count)
			for k := range row {
				if len(vals) > 0 {
					row[k] = float64(int8(vals[next%len(vals)])) * scale
					next++
				}
			}
			return row
		}
		xs, ys := make([][]float64, n), make([][]float64, n)
		for i, b := range shape[:n] {
			xs[i], ys[i] = draw(1+int(b&3)), draw(1+int(b>>2&3))
		}
		x, y := tinySeries(0, xs...), tinySeries(1, ys...)
		if combos := 1; ExactFeasible(x, y) {
			for i := range xs {
				combos *= len(xs[i]) * len(ys[i])
			}
			if combos > 1<<20 {
				// 2^21 sums a half take ~0.4 s an exec, 2^10 ~0.2 ms:
				// TestMomentBracketBoundsTheEstimate's exact rows cover
				// the larger counts.
				return
			}
		}
		lo, hi, err := BoundingIntervals(x).Bounds(BoundingIntervals(y))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(pos) {
			pos = 0.5
		}
		eps := max(0, lo+(hi-lo)*min(max(pos, -0.5), 1.5))
		o := Options{Bins: 16}
		if wide {
			o.Bins = 256
		}
		blo, bhi := o.MomentBracket(x, y, eps)
		p, err := Probability(x, y, eps, o)
		if err != nil {
			if blo != 0 || bhi != 1 {
				t.Fatalf("eps=%v bins=%d: the estimator refuses (%v), yet the bracket is [%v, %v]", eps, o.Bins, err, blo, bhi)
			}
			return
		}
		if !(blo-bracketSlack <= p && p <= bhi+bracketSlack) {
			t.Fatalf("x=%v y=%v eps=%v bins=%d: estimate %v outside the bracket [%v, %v]", xs, ys, eps, o.Bins, p, blo, bhi)
		}
	})
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
				p, ok, _, err := convolutionProbability(tc.x, tc.y, tc.eps, cutoff, tc.bins, nil)
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

// servedPair is the shape of the refine uncertserve runs: 128 timestamps x 3
// samples a side (convolved over the default 4096 bins), at an eps 0.4 of the
// way across the bounding-interval bracket.
func servedPair(tb testing.TB) (x, y uncertain.SampleSeries, eps float64) {
	x, y = convPair(rand.New(rand.NewSource(24)), 128, 3, 0.3)
	for i := range x.Samples {
		x.Samples[i], y.Samples[i] = append(x.Samples[i], 0, 0)[:3], append(y.Samples[i], 0, 0)[:3]
	}
	lo, hi, err := BoundingIntervals(x).Bounds(BoundingIntervals(y))
	if err != nil {
		tb.Fatal(err)
	}
	return x, y, lo + 0.4*(hi-lo)
}

// TestConvolutionServedShape gates the served refine (servedPair) on its
// allocations with a warm pool: a handful per call, none per timestamp.
func TestConvolutionServedShape(t *testing.T) {
	x, y, eps := servedPair(t)
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
		if _, _, _, err := convolutionProbability(x, y, 1e154, 0.1, bins, nil); !errors.Is(err, qerr.ErrBadRequest) {
			t.Errorf("bins=%d: err = %v, want ErrBadRequest", bins, err)
		}
	}
	// Squares that vanish into the subnormals have no usable width either.
	z := tinySeries(2, []float64{1e-160}, []float64{0})
	if _, _, _, err := convolutionProbability(tinySeries(3, []float64{0}, []float64{0}), z, 1, 0.1, 16, nil); !errors.Is(err, qerr.ErrBadRequest) {
		t.Errorf("subnormal width: err = %v, want ErrBadRequest", err)
	}
}

// BenchmarkServedShape times the three MUNICH layers a served probrange query
// may run per candidate, on servedPair: the uncut convolution refine, the
// moment bracket and the interval prune (at this eps it neither rejects early
// nor accepts, so it runs both sums whole). One pair pruned over and over
// repeats its branches, which a predictor learns; a served query's
// candidates do not, so a profile of the served mix judges the prune.
func BenchmarkServedShape(b *testing.B) {
	x, y, eps := servedPair(b)
	xi, yi := BoundingIntervals(x), BoundingIntervals(y)
	b.Run("refine", func(b *testing.B) {
		for range b.N {
			if _, _, err := ProbabilityCutoff(x, y, eps, math.Inf(-1), Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bracket", func(b *testing.B) {
		for range b.N {
			Options{}.MomentBracket(x, y, eps)
		}
	})
	b.Run("prune", func(b *testing.B) {
		for range b.N {
			if d, err := xi.Prune(yi, eps); err != nil || d != PruneUnknown {
				b.Fatal(d, err)
			}
		}
	})
}

// FuzzAddTaps holds addTaps to addTapsGo, and scale to scaleGo (src weighted
// by 1/taps, as a step of that many squared differences weights its window),
// bit for bit. n%41 is the bin count, 0 to 40: two whole blocks of 16 and
// every tail. The first tap sits at offset 0 and each byte of gaps (at most
// 11) adds one gaps[t]%16 past the one before, so 1 to 12 taps run, ties
// included, the last at the largest offset. Each byte of vals in turn fills
// dst and then src: below len(addends) it picks one of them (+0, -0,
// subnormals, +Inf, NaN, the largest float), above it a value of its own. No
// addend is below -0, as in a convolution, so no sum makes a NaN of its own
// whose payload would depend on the order of an addition's operands.
func FuzzAddTaps(f *testing.F) {
	addends := []float64{0, math.Copysign(0, -1), 0x1p-1074, 0x1p-1030, math.Inf(1), math.NaN(), math.MaxFloat64, 1}
	f.Fuzz(func(t *testing.T, n uint8, gaps, vals []byte) {
		offs := []int{0}
		for _, g := range gaps[:min(len(gaps), 11)] {
			offs = append(offs, offs[len(offs)-1]+int(g%16))
		}
		bins := int(n % 41)
		next := 0
		fill := func(v []float64) []float64 {
			for i := range v {
				if len(vals) > 0 {
					b := vals[next%len(vals)]
					next++
					v[i] = float64(b) / 3
					if int(b) < len(addends) {
						v[i] = addends[b]
					}
				}
			}
			return v
		}
		dst := fill(make([]float64, bins))
		src := fill(make([]float64, offs[len(offs)-1]+bins))
		want := slices.Clone(dst)
		addTaps(dst, src, offs)
		addTapsGo(want, src, offs)
		w := 1 / float64(len(offs))
		scaled, wantScaled := make([]float64, len(src)), make([]float64, len(src))
		scale(scaled, src, w)
		scaleGo(wantScaled, src, w)
		for _, c := range []struct {
			kernel    string
			got, want []float64
		}{{"addTaps", dst, want}, {"scale", scaled, wantScaled}} {
			for i := range c.got {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("%s, bins=%d offs=%v: bin %d is %v (%#x), the Go loop's %v (%#x)", c.kernel, bins, offs, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
				}
			}
		}
	})
}
