package munich

import (
	"fmt"
	"math"
	"math/rand"
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
// shaped: a smooth base, per-timestamp samples around it, values rounded to
// 4 decimals. spread sets how far apart the two series sit.
func convPair(rng *rand.Rand, n int, spread float64) (x, y uncertain.SampleSeries) {
	round := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	mk := func(id int, shift float64) uncertain.SampleSeries {
		samples := make([][]float64, n)
		for i := range samples {
			row := make([]float64, 1+rng.Intn(4))
			centre := math.Sin(0.2*float64(i)) + shift
			for k := range row {
				row[k] = round(centre + 0.25*rng.NormFloat64())
			}
			samples[i] = row
		}
		return uncertain.SampleSeries{Samples: samples, ID: id}
	}
	return mk(0, 0), mk(1, spread*rng.NormFloat64())
}

// nothingReaches reports whether the look-ahead finds no bin of the initial
// histogram — not even bin 0 — whose mass can arrive at eps^2.
func nothingReaches(x, y uncertain.SampleSeries, eps float64, bins int) bool {
	mins := make([]float64, x.Len())
	var maxSum float64
	for i := range mins {
		lo, hi := stats.MinMax(squaredDiffMultiset(x, y, i))
		mins[i] = lo
		maxSum += hi
	}
	return maxSum > 0 && reachableBins(mins, maxSum/float64(bins), eps*eps, bins)[0] < 0
}

// TestConvolutionMatchesReference is the differential test of the windowed
// convolution against the frozen full sweep.
func TestConvolutionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	finite := []float64{1e-12, 0.1, 0.5, 0.9, 1}
	binChoices := []int{16, 256, 4096}
	var completed, abandoned, refAbandoned, unreachable int
	// Each pair runs uncut and under two of the finite cutoffs; the full
	// sweep of the reference is what costs (~9x more under -race).
	pairs := 3000
	if testing.Short() {
		pairs = 400
	}
	for trial := 0; trial < pairs; trial++ {
		n := 1 + rng.Intn(128)
		x, y := convPair(rng, n, []float64{0, 0.05, 0.3, 1}[trial%4])
		lo, hi, err := Bounds(x, y)
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
		}
		if eps < 0 {
			eps = 0
		}
		bins := binChoices[trial%len(binChoices)]
		want, complete, err := convolutionProbabilityRef(x, y, eps, math.Inf(-1), bins, nil)
		if err != nil || !complete {
			t.Fatalf("trial %d: uncut reference: %v, complete=%v", trial, err, complete)
		}
		noReach := nothingReaches(x, y, eps, bins)
		first := rng.Intn(len(finite))
		second := (first + 1 + rng.Intn(len(finite)-1)) % len(finite)
		for _, cutoff := range []float64{math.Inf(-1), finite[first], finite[second]} {
			name := fmt.Sprintf("trial %d (n=%d bins=%d eps=%g cutoff=%g)", trial, n, bins, eps, cutoff)
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
	t.Logf("%d pairs: %d completed, %d abandoned (reference %d), %d with no reachable bin", pairs, completed, abandoned, refAbandoned, unreachable)
	if abandoned < refAbandoned || abandoned == 0 || unreachable == 0 {
		t.Fatalf("the table does not exercise the abandon paths: %d abandoned (reference %d), %d unreachable", abandoned, refAbandoned, unreachable)
	}
}
