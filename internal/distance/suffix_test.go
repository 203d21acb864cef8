package distance

import (
	"math"
	"math/rand"
	"testing"
)

// suffixOutcome is what checkSuffix saw for one pair and cutoff.
type suffixOutcome int

const (
	suffixPruned    suffixOutcome = iota // LB_Keogh alone exceeded the cutoff; nothing armed
	suffixCompleted                      // armed, and the DP completed
	suffixAbandoned                      // armed, and the DP abandoned
)

// checkSuffix runs the engine's cascade on (x, y): LB_Keogh over y's
// envelopes on scratch, then the DP on the same scratch, which the bound
// arms. Where the bound leaves the pair to the DP, the armed kernel must
// complete exactly when the frozen reference does, with the reference's
// bits. The next call on the scratch, unarmed, must be the reference bit for
// bit, abandoned value included. x and y have the same length.
func checkSuffix(t *testing.T, x, y []float64, band int, cutoff float64, scratch *DTWScratch, ref *dtwRefScratch) suffixOutcome {
	t.Helper()
	upper, lower := envelope(y, band)
	want, wantDone, wantErr := dtwBandRef(x, y, band, cutoff, nil, ref)
	lb, err := scratch.LBKeoghSquared(x, upper, lower, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if plain, _ := LBKeoghSquared(x, upper, lower, cutoff); math.Float64bits(plain) != math.Float64bits(lb) {
		t.Fatalf("x=%v y=%v: the scratch's LB_Keogh %v, the package's %v", x, y, lb, plain)
	}
	out := suffixPruned
	if lb <= cutoff {
		got, done, err := DTWBandEarlyAbandonScratch(x, y, band, cutoff, nil, scratch)
		if (err == nil) != (wantErr == nil) || done != wantDone || done && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x=%v y=%v band=%d cutoff=%v: armed kernel (%v, %v, %v), reference (%v, %v, %v)",
				x, y, band, cutoff, got, done, err, want, wantDone, wantErr)
		}
		out = suffixAbandoned
		if done {
			out = suffixCompleted
		}
	}
	got, done, err := DTWBandEarlyAbandonScratch(x, y, band, cutoff, nil, scratch)
	if (err == nil) != (wantErr == nil) || done != wantDone || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("x=%v y=%v band=%d cutoff=%v: unarmed kernel (%v, %v, %v), reference (%v, %v, %v)",
			x, y, band, cutoff, got, done, err, want, wantDone, wantErr)
	}
	return out
}

// absorbedTail is a pair whose path cost is exactly scale^2 although every
// later row adds a cost under half an ulp of scale^2, which each rounded sum
// absorbs: x = (scale, 0, ...), y = (0, d, ...) with d^2 ~ 4.9e-17 scale^2,
// below 2^-54 scale^2 whatever scale's binade. LB_Keogh sees those
// costs and sums them apart from the path, so rowMin + suffix rounds above
// the cost itself. Without suffixCut's margin the DP abandons it at a cutoff
// equal to its cost.
func absorbedTail(n int, scale float64) (x, y []float64) {
	x, y = make([]float64, n), make([]float64, n)
	x[0] = scale
	for i := 1; i < n; i++ {
		y[i] = 7e-9 * scale
	}
	return x, y
}

// TestDTWSuffixAbandonIsSound holds the LB_Keogh suffix abandon to the frozen
// single-row loop: over the two-decimal series of
// TestDTWKernelMatchesReference (rows of +-1e200 included), the same series
// at ~1e150, near-ties (y one ulp from x here and there), exact duplicates and
// absorbed tails, under every band and cutoffs on both sides of the path
// cost and on it, a pair LB_Keogh leaves to the armed DP completes exactly
// when the reference does, with its bits. The absorbed tails, which need the
// rounding margin, must complete at their own cost; the table must also
// abandon armed.
func TestDTWSuffixAbandonIsSound(t *testing.T) {
	pairs := 20000
	if testing.Short() {
		pairs = 2000
	}
	rng := rand.New(rand.NewSource(32))
	series := func(n int, scale float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = scale * float64(rng.Intn(2001)-1000) / 100
		}
		if rng.Intn(8) == 0 {
			v := math.Copysign(1e200, rng.Float64()-0.5)
			for i := rng.Intn(n); i < n && rng.Intn(3) > 0; i++ {
				s[i] = v
			}
		}
		return s
	}
	var scratch DTWScratch
	var ref dtwRefScratch
	var counts [3]int
	run := func(x, y []float64) {
		n := len(x)
		for _, band := range []int{-1, 0, 1, 2, 3, 12, n + rng.Intn(3)} {
			full, _, _ := dtwBandRef(x, y, band, math.Inf(1), nil, &ref)
			d2 := full * full
			for _, cutoff := range []float64{math.Inf(1), d2, math.Nextafter(d2, 0), math.Nextafter(d2, math.Inf(1)), rng.Float64() * d2, 0.9 * d2, 1.5 * d2} {
				counts[checkSuffix(t, x, y, band, cutoff, &scratch, &ref)]++
			}
		}
	}
	for p := 0; p < pairs; p++ {
		n := 1 + rng.Intn(40)
		scale := 1.0
		if p%4 == 3 {
			scale = 1e150
		}
		x := series(n, scale)
		var y []float64
		switch p % 5 {
		case 0: // an exact duplicate
			y = append([]float64(nil), x...)
		case 1: // near-ties: x, one ulp off here and there
			y = append([]float64(nil), x...)
			for i := range y {
				if rng.Intn(3) == 0 {
					y[i] = math.Nextafter(y[i], math.Inf(rng.Intn(2)*2-1))
				}
			}
		default:
			y = series(n, scale)
		}
		run(x, y)
	}
	// The absorbed tails: at their own cost (scale^2, exactly) they complete.
	for _, n := range []int{5, 17, 32, 128} {
		for _, scale := range []float64{1, 1e-100, 1e150, 1.3e154} {
			x, y := absorbedTail(n, scale)
			for _, band := range []int{-1, 0, 2, 12} {
				if got := checkSuffix(t, x, y, band, scale*scale, &scratch, &ref); got != suffixCompleted {
					t.Fatalf("absorbed tail n=%d scale=%g band=%d: outcome %d at its own cost, want completed", n, scale, band, got)
				}
			}
			run(x, y)
		}
	}
	t.Logf("%d pairs: %d pruned by LB_Keogh, %d completed armed, %d abandoned armed", pairs, counts[suffixPruned], counts[suffixCompleted], counts[suffixAbandoned])
	if counts[suffixCompleted] == 0 || counts[suffixAbandoned] == 0 {
		t.Fatalf("the table must complete and abandon armed: %v", counts)
	}
}

// FuzzDTWKernel draws x, y, a band, a scale and a cutoff. Values are int8s
// times the scale (a scale that is not finite or above 1e154 reads as 1), so
// ties, duplicates and overflowing squares all come up. With no suffix the
// kernel must be the frozen reference bit for bit, over the assembly sweep
// and over the Go one alike, and armed by LB_Keogh it must never abandon a
// pair within the cutoff, at the drawn cutoff and at the pair's own squared
// distance.
func FuzzDTWKernel(f *testing.F) {
	var scratch, goScratch DTWScratch
	var ref dtwRefScratch
	f.Fuzz(func(t *testing.T, xs, ys []byte, scale float64, band int, cutoff float64) {
		if len(xs) > 64 || len(ys) > 64 || band > 70 || band < -1 {
			return
		}
		if !(math.Abs(scale) <= 1e154) {
			scale = 1
		}
		values := func(b []byte) []float64 {
			v := make([]float64, len(b))
			for i := range b {
				v[i] = float64(int8(b[i])) * scale
			}
			return v
		}
		x, y := values(xs), values(ys)
		want, wantDone, wantErr := dtwBandRef(x, y, band, cutoff, nil, &ref)
		got, done, err := DTWBandEarlyAbandonScratch(x, y, band, cutoff, nil, &scratch)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || done != wantDone || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x=%v y=%v band=%d cutoff=%v: kernel (%v, %v, %v), reference (%v, %v, %v)", x, y, band, cutoff, got, done, err, want, wantDone, wantErr)
		}
		got, done, err = dtwBand(x, y, band, cutoff, nil, &goScratch, true)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || done != wantDone || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x=%v y=%v band=%d cutoff=%v: Go sweep (%v, %v, %v), reference (%v, %v, %v)", x, y, band, cutoff, got, done, err, want, wantDone, wantErr)
		}
		if len(x) == 0 || len(x) != len(y) {
			return
		}
		full, _, _ := dtwBandRef(x, y, band, math.Inf(1), nil, &ref)
		checkSuffix(t, x, y, band, cutoff, &scratch, &ref)
		checkSuffix(t, x, y, band, full*full, &scratch, &ref)
	})
}

// FuzzLBKeogh holds lbKeoghTerms, LB_Keogh's assembly loop, to its Go loop
// (lbKeoghGo) bit for bit: the returned sum, every term stored, and how many
// were stored before the sum passed the cutoff, with terms and without. The
// values are int8s times the scale (one that is not finite reads as 1), and
// the int8s -128 and 127 are -1e200 and 1e200, whose squared gaps overflow.
// The envelopes are y's under the band, and also y itself against y
// shifted, which puts lower above upper at some timestamps.
func FuzzLBKeogh(f *testing.F) {
	f.Add([]byte{0, 5, 250, 127, 3}, []byte{1, 2, 3, 4, 5, 6}, 1.0, 1, 4.0)
	f.Add([]byte{128, 127, 0, 0}, []byte{0, 127, 128, 9, 9}, 1e100, 0, math.Inf(1))
	f.Add([]byte{9, 9, 9}, []byte{9, 9, 9, 9}, 0.5, 2, 0.0)
	f.Add([]byte{1, 200, 3, 90, 7, 60, 20}, []byte{30, 40, 50, 60, 70, 80, 90, 100}, 3.0, 3, math.NaN())
	f.Add([]byte{12, 21}, []byte{10, 20, 30}, 1.0, 0, math.Inf(1)) // q above upper and below lower at once
	f.Fuzz(func(t *testing.T, qs, ys []byte, scale float64, band int, cutoff float64) {
		n := len(qs)
		if n > 256 || len(ys) < n+1 || band < -1 || band > n {
			return
		}
		if math.IsInf(scale, 0) || math.IsNaN(scale) {
			scale = 1
		}
		values := func(b []byte) []float64 {
			v := make([]float64, len(b))
			for i, c := range b {
				switch int8(c) {
				case -128:
					v[i] = -1e200
				case 127:
					v[i] = 1e200
				default:
					v[i] = float64(int8(c)) * scale
				}
			}
			return v
		}
		q, y := values(qs), values(ys)
		upper, lower := envelope(y[:n], band)
		for _, env := range [][2][]float64{{upper, lower}, {y[:n], y[1 : n+1]}} {
			u, l := env[0], env[1]
			want := lbKeoghGo(q, u, l, nil, cutoff)
			if got := lbKeoghTerms(q, u, l, nil, cutoff); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q=%v upper=%v lower=%v cutoff=%v: sum %v without terms, Go loop %v", q, u, l, cutoff, got, want)
			}
			gotTerms, wantTerms := make([]float64, n), make([]float64, n)
			for i := range gotTerms {
				gotTerms[i], wantTerms[i] = math.NaN(), math.NaN() // unstored
			}
			got, want := lbKeoghTerms(q, u, l, gotTerms, cutoff), lbKeoghGo(q, u, l, wantTerms, cutoff)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q=%v upper=%v lower=%v cutoff=%v: sum %v, Go loop %v", q, u, l, cutoff, got, want)
			}
			for i := range gotTerms {
				if math.Float64bits(gotTerms[i]) != math.Float64bits(wantTerms[i]) {
					t.Fatalf("q=%v upper=%v lower=%v cutoff=%v: term %d is %v, Go loop's %v", q, u, l, cutoff, i, gotTerms[i], wantTerms[i])
				}
			}
		}
	})
}
