package distance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uncertts/internal/qerr"
)

func randSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// envelope returns y's LB_Keogh envelopes under half-width r in fresh slices.
func envelope(y []float64, r int) (upper, lower []float64) {
	upper, lower = make([]float64, len(y)), make([]float64, len(y))
	EnvelopeIntoScratch(upper, lower, y, r, &EnvelopeScratch{})
	return upper, lower
}

func TestSquaredEuclideanEarlyAbandonMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		x, y := randSeries(rng, 64), randSeries(rng, 64)
		want, err := SquaredEuclidean(x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, complete, err := SquaredEuclideanEarlyAbandon(x, y, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if !complete || got != want {
			t.Fatalf("cutoff=+Inf: got (%v, %v), want (%v, true)", got, complete, want)
		}
		// A cutoff at the exact value completes; anything below abandons.
		if _, complete, _ := SquaredEuclideanEarlyAbandon(x, y, want); !complete {
			t.Fatal("cutoff == distance should complete")
		}
		if got, complete, _ := SquaredEuclideanEarlyAbandon(x, y, want/2); complete {
			t.Fatal("cutoff below distance should abandon")
		} else if got <= want/2 {
			t.Fatalf("abandoned partial %v should exceed cutoff %v", got, want/2)
		}
	}
}

func TestSquaredEuclideanEarlyAbandonLengthMismatch(t *testing.T) {
	if _, _, err := SquaredEuclideanEarlyAbandon([]float64{1}, []float64{1, 2}, 10); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestEnvelopeBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 7, 33} {
		for _, r := range []int{-1, 0, 1, 3, 100} {
			y := randSeries(rng, n)
			upper, lower := envelope(y, r)
			for i := 0; i < n; i++ {
				lo, hi := i-r, i+r
				if r < 0 || r >= n {
					lo, hi = 0, n-1
				}
				if lo < 0 {
					lo = 0
				}
				if hi > n-1 {
					hi = n - 1
				}
				wantU, wantL := math.Inf(-1), math.Inf(1)
				for j := lo; j <= hi; j++ {
					wantU = math.Max(wantU, y[j])
					wantL = math.Min(wantL, y[j])
				}
				if upper[i] != wantU || lower[i] != wantL {
					t.Fatalf("n=%d r=%d i=%d: envelope (%v, %v), want (%v, %v)",
						n, r, i, upper[i], lower[i], wantU, wantL)
				}
			}
		}
	}
}

func TestLBKeoghLowerBoundsBandedDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 48
		q, y := randSeries(rng, n), randSeries(rng, n)
		for _, band := range []int{0, 2, 5, n} {
			upper, lower := envelope(y, band)
			lb, err := LBKeoghSquared(q, upper, lower, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			d, err := DTWBand(q, y, band)
			if err != nil {
				t.Fatal(err)
			}
			if lb > d*d*(1+1e-12) {
				t.Fatalf("band=%d: LB_Keogh %v exceeds DTW^2 %v", band, lb, d*d)
			}
		}
	}
}

func TestLBKeoghEnvelopeSelfIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	y := randSeries(rng, 32)
	upper, lower := envelope(y, 3)
	lb, err := LBKeoghSquared(y, upper, lower, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if lb != 0 {
		t.Fatalf("series inside its own envelope must have zero bound, got %v", lb)
	}
}

func TestDTWBandEarlyAbandonMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		q, y := randSeries(rng, 40), randSeries(rng, 40)
		for _, band := range []int{-1, 0, 4, 10} {
			want, err := DTWBand(q, y, band)
			if err != nil {
				t.Fatal(err)
			}
			got, complete, err := DTWBandEarlyAbandonScratch(q, y, band, math.Inf(1), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !complete || got != want {
				t.Fatalf("band=%d: got (%v, %v), want (%v, true)", band, got, complete, want)
			}
			if got, complete, _ := DTWBandEarlyAbandonScratch(q, y, band, want*want/4, nil, nil); complete {
				t.Fatalf("band=%d: cutoff below cost should abandon", band)
			} else if got*got <= want*want/4*(1-1e-12) {
				t.Fatalf("band=%d: abandoned partial %v should exceed cutoff", band, got)
			}
		}
	}
}

func TestDTWBandEarlyAbandonErrors(t *testing.T) {
	if _, _, err := DTWBandEarlyAbandonScratch(nil, []float64{1}, -1, 1, nil, nil); err == nil {
		t.Fatal("want empty-series error")
	}
	if _, _, err := DTWBandEarlyAbandonScratch([]float64{1, 2, 3}, []float64{1}, 1, 1, nil, nil); err == nil {
		t.Fatal("want band-too-narrow error")
	}
}

// dtwRefScratch is the two-row scratch dtwBandRef was written against.
type dtwRefScratch struct{ prev, curr []float64 }

func (s *dtwRefScratch) rows(m int) (prev, curr []float64) {
	if cap(s.prev) < m+1 {
		s.prev = make([]float64, m+1)
		s.curr = make([]float64, m+1)
	}
	return s.prev[:m+1], s.curr[:m+1]
}

// dtwBandRef is DTWBandEarlyAbandonScratch as it stood before PR 25, frozen
// verbatim (only its scratch type moved here): one row at a time, every row
// reset to +Inf whole, neighbours reloaded from the rows, the minimum taken
// by compare-and-branch. TestDTWKernelMatchesReference holds the kernel to it
// bit for bit; do not edit it.
func dtwBandRef(x, y []float64, band int, cutoff float64, done <-chan struct{}, scratch *dtwRefScratch) (float64, bool, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, false, fmt.Errorf("distance: DTW over empty series")
	}
	if band >= 0 && abs(n-m) > band {
		return 0, false, fmt.Errorf("distance: DTW band %d narrower than length difference %d", band, abs(n-m))
	}
	var prev, curr []float64
	if scratch != nil {
		prev, curr = scratch.rows(m)
	} else {
		prev = make([]float64, m+1)
		curr = make([]float64, m+1)
	}
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		if done != nil && i%dtwCancelStride == 0 {
			select {
			case <-done:
				return 0, false, qerr.Cancelled(nil)
			default:
			}
		}
		for j := range curr {
			curr[j] = math.Inf(1)
		}
		lo, hi := 1, m
		if band >= 0 {
			if l := i - band; l > lo {
				lo = l
			}
			if h := i + band; h < hi {
				hi = h
			}
		}
		rowMin := math.Inf(1)
		for j := lo; j <= hi; j++ {
			d := x[i-1] - y[j-1]
			cost := d * d
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if curr[j-1] < best {
				best = curr[j-1]
			}
			curr[j] = cost + best
			if curr[j] < rowMin {
				rowMin = curr[j]
			}
		}
		// Path costs are non-decreasing along any warping path, so once the
		// cheapest cell of a row exceeds the cutoff the final cost must too.
		if rowMin > cutoff {
			return math.Sqrt(rowMin), false, nil
		}
		prev, curr = curr, prev
	}
	if prev[m] > cutoff {
		return math.Sqrt(prev[m]), false, nil
	}
	return math.Sqrt(prev[m]), true, nil
}

// TestDTWKernelMatchesReference runs the kernel and the frozen loop over
// seeded pairs of two-decimal series (ties everywhere), with and without
// rows of +-1e200 whose squared differences overflow to +Inf, under every
// band shape (narrower than the length difference, 0, narrow, wide,
// unconstrained) and cutoffs on both sides of the path cost and exactly on
// it. Value bits, completion and error must agree, and DTWBand (the kernel at
// +Inf, on fresh rows) and the kernel over the Go sweep (sweep4Go) must
// return the reference's completed value. The
// kernel's scratch carries over between calls of any length, as a scan
// worker's does.
func TestDTWKernelMatchesReference(t *testing.T) {
	pairs := 100000
	if testing.Short() {
		pairs = 5000
	}
	rng := rand.New(rand.NewSource(25))
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(2001)-1000) / 100
		}
		if rng.Intn(8) == 0 {
			// Whole overflowing rows as well as single cells.
			v := math.Copysign(1e200, rng.Float64()-0.5)
			for i := rng.Intn(n); i < n && rng.Intn(3) > 0; i++ {
				s[i] = v
			}
		}
		return s
	}
	sameErr := func(a, b error) bool { return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error()) }
	var scratch, goScratch DTWScratch
	var refScratch dtwRefScratch
	var completed, abandoned, failed int
	for p := 0; p < pairs; p++ {
		n := 1 + rng.Intn(40)
		m := n + rng.Intn(5) - 2
		if m < 1 {
			m = 1
		}
		x, y := series(n), series(m)
		for _, band := range []int{-1, 0, 1, 2, 3, 12, n + rng.Intn(3)} {
			full, _, fullErr := dtwBandRef(x, y, band, math.Inf(1), nil, &refScratch)
			got, gotErr := DTWBand(x, y, band)
			if math.Float64bits(got) != math.Float64bits(full) || !sameErr(gotErr, fullErr) {
				t.Fatalf("x=%v y=%v band=%d: DTWBand (%v, %v), reference (%v, %v)", x, y, band, got, gotErr, full, fullErr)
			}
			if got, _, gotErr := dtwBand(x, y, band, math.Inf(1), nil, &goScratch, true); math.Float64bits(got) != math.Float64bits(full) || !sameErr(gotErr, fullErr) {
				t.Fatalf("x=%v y=%v band=%d: the Go sweep (%v, %v), reference (%v, %v)", x, y, band, got, gotErr, full, fullErr)
			}
			d2 := full * full
			for _, cutoff := range []float64{math.Inf(1), d2, math.Nextafter(d2, 0), rng.Float64() * d2, 1.5 * d2} {
				want, wantDone, wantErr := full, fullErr == nil, fullErr
				if !math.IsInf(cutoff, 1) {
					want, wantDone, wantErr = dtwBandRef(x, y, band, cutoff, nil, &refScratch)
				}
				got, gotDone, gotErr := DTWBandEarlyAbandonScratch(x, y, band, cutoff, nil, &scratch)
				if math.Float64bits(got) != math.Float64bits(want) || gotDone != wantDone || !sameErr(gotErr, wantErr) {
					t.Fatalf("x=%v y=%v band=%d cutoff=%v: kernel (%v, %v, %v), reference (%v, %v, %v)",
						x, y, band, cutoff, got, gotDone, gotErr, want, wantDone, wantErr)
				}
				switch {
				case wantErr != nil:
					failed++
				case wantDone:
					completed++
				default:
					abandoned++
				}
			}
		}
	}
	if completed == 0 || abandoned == 0 || failed == 0 {
		t.Fatalf("the table must complete, abandon and fail: %d / %d / %d", completed, abandoned, failed)
	}
	t.Logf("%d pairs: %d completed, %d abandoned, %d errors, all bit-identical", pairs, completed, abandoned, failed)
}

func TestDTWBandEarlyAbandonCancel(t *testing.T) {
	n := 256 // long enough to cross several poll strides
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
		y[i] = math.Cos(float64(i) * 0.13)
	}
	closed := make(chan struct{})
	close(closed)
	_, complete, err := DTWBandEarlyAbandonScratch(x, y, -1, math.Inf(1), closed, nil)
	if !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if complete {
		t.Fatal("cancelled DTW reported complete")
	}

	// A nil done computes exactly the uncancelled kernel.
	want, err := DTWBand(x, y, -1)
	if err != nil {
		t.Fatalf("reference failed: %v", err)
	}
	got, complete, err := DTWBandEarlyAbandonScratch(x, y, -1, math.Inf(1), nil, nil)
	if err != nil || !complete || got != want {
		t.Fatalf("nil done gave %v (complete=%v, err=%v), want %v", got, complete, err, want)
	}
}
