package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"uncertts/internal/stats"
)

func TestMovingAverageWindowZeroIsIdentity(t *testing.T) {
	in := []float64{3, 1, 4, 1, 5}
	out := MovingAverage(in, 0)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("w=0 should be identity, got %v", out)
		}
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if in[0] == 99 {
		t.Error("MovingAverage must not alias its input")
	}
}

func TestMovingAverageInterior(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5}
	out := MovingAverage(in, 1)
	want := []float64{1.5, 2, 3, 4, 4.5} // clipped at edges
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Errorf("MA[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestMovingAveragePreservesConstant(t *testing.T) {
	f := func(c float64, wRaw int) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e12 {
			return true
		}
		w := wRaw % 10
		if w < 0 {
			w = -w
		}
		in := make([]float64, 20)
		for i := range in {
			in[i] = c
		}
		for _, v := range MovingAverage(in, w) {
			if !almostEqual(v, c, 1e-9*(1+math.Abs(c))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverageReducesVariance(t *testing.T) {
	rng := stats.NewRand(3)
	in := make([]float64, 500)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	out := MovingAverage(in, 2)
	if stats.Variance(out) >= stats.Variance(in) {
		t.Errorf("smoothing should reduce variance of white noise: %v >= %v",
			stats.Variance(out), stats.Variance(in))
	}
}

func TestMovingAverageNegativeWClamped(t *testing.T) {
	in := []float64{1, 2, 3}
	out := MovingAverage(in, -5)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("negative w should clamp to identity, got %v", out)
		}
	}
}

func TestEMAZeroLambdaEqualsMA(t *testing.T) {
	in := []float64{2, 7, 1, 8, 2, 8, 1, 8}
	ma := MovingAverage(in, 2)
	ema := ExponentialMovingAverage(in, 2, 0)
	for i := range in {
		if !almostEqual(ma[i], ema[i], 1e-12) {
			t.Errorf("lambda=0 EMA[%d] = %v, MA = %v", i, ema[i], ma[i])
		}
	}
}

func TestEMALargeLambdaApproachesIdentity(t *testing.T) {
	in := []float64{2, 7, 1, 8, 2, 8}
	ema := ExponentialMovingAverage(in, 3, 50)
	for i := range in {
		if !almostEqual(ema[i], in[i], 1e-9) {
			t.Errorf("huge lambda EMA[%d] = %v, want %v", i, ema[i], in[i])
		}
	}
}

func TestEMACenterWeightedMoreThanNeighbors(t *testing.T) {
	// A single impulse: the filtered response must peak at the impulse and
	// decay symmetrically.
	in := make([]float64, 11)
	in[5] = 1
	out := ExponentialMovingAverage(in, 3, 0.7)
	if out[5] <= out[4] || out[5] <= out[6] {
		t.Errorf("impulse response should peak at the impulse: %v", out)
	}
	if !almostEqual(out[4], out[6], 1e-12) {
		t.Errorf("impulse response should be symmetric: %v vs %v", out[4], out[6])
	}
	if out[4] <= out[3] {
		t.Errorf("impulse response should decay: %v", out)
	}
}

func TestUMAConstantSigmaEqualsMA(t *testing.T) {
	in := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	sig := make([]float64, len(in))
	for i := range sig {
		sig[i] = 0.7
	}
	uma, err := UncertainMovingAverage(in, sig, 2, WeightModeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	ma := MovingAverage(in, 2)
	for i := range in {
		if !almostEqual(uma[i], ma[i], 1e-12) {
			t.Errorf("constant-sigma UMA[%d] = %v, MA = %v", i, uma[i], ma[i])
		}
	}
}

func TestUMAStrictModeScalesByInverseSigma(t *testing.T) {
	// With constant sigma, strict Eq. 17 divides the plain MA by sigma.
	in := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	sig := make([]float64, len(in))
	for i := range sig {
		sig[i] = 2.0
	}
	strict, err := UncertainMovingAverage(in, sig, 1, WeightModeStrict)
	if err != nil {
		t.Fatal(err)
	}
	ma := MovingAverage(in, 1)
	for i := range in {
		if !almostEqual(strict[i], ma[i]/2, 1e-12) {
			t.Errorf("strict UMA[%d] = %v, want %v", i, strict[i], ma[i]/2)
		}
	}
}

func TestUMADownweightsNoisyPoint(t *testing.T) {
	// Point 2 is an outlier with huge sigma; UMA at index 1 should be closer
	// to the clean average than plain MA is.
	in := []float64{1, 1, 100, 1, 1}
	sig := []float64{0.1, 0.1, 10, 0.1, 0.1}
	uma, err := UncertainMovingAverage(in, sig, 1, WeightModeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	ma := MovingAverage(in, 1)
	if math.Abs(uma[1]-1) >= math.Abs(ma[1]-1) {
		t.Errorf("UMA should trust the noisy point less: uma=%v ma=%v", uma[1], ma[1])
	}
}

// uema returns the UEMA filter of values in a fresh slice.
func uema(values, sigmas []float64, w int, lambda float64, mode WeightMode) ([]float64, error) {
	out := make([]float64, len(values))
	return out, UncertainExponentialMovingAverageInto(out, values, sigmas, w, lambda, mode)
}

func TestUEMAConstantSigmaEqualsEMA(t *testing.T) {
	in := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	sig := make([]float64, len(in))
	for i := range sig {
		sig[i] = 1.3
	}
	got, err := uema(in, sig, 2, 0.5, WeightModeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	ema := ExponentialMovingAverage(in, 2, 0.5)
	for i := range in {
		if !almostEqual(got[i], ema[i], 1e-12) {
			t.Errorf("constant-sigma UEMA[%d] = %v, EMA = %v", i, got[i], ema[i])
		}
	}
}

func TestUEMALambdaZeroEqualsUMA(t *testing.T) {
	in := []float64{3, 1, 4, 1, 5, 9}
	sig := []float64{1, 2, 1, 0.5, 1, 2}
	got, err := uema(in, sig, 2, 0, WeightModeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	uma, err := UncertainMovingAverage(in, sig, 2, WeightModeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if !almostEqual(got[i], uma[i], 1e-12) {
			t.Errorf("lambda=0 UEMA[%d] = %v, UMA = %v", i, got[i], uma[i])
		}
	}
}

func TestUncertainFilterErrors(t *testing.T) {
	in := []float64{1, 2, 3}
	if _, err := UncertainMovingAverage(in, []float64{1, 2}, 1, WeightModeNormalized); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := UncertainMovingAverage(in, []float64{1, 0, 1}, 1, WeightModeNormalized); err == nil {
		t.Error("zero sigma should error")
	}
	if _, err := uema(in, []float64{1, -1, 1}, 1, 1, WeightModeNormalized); err == nil {
		t.Error("negative sigma should error")
	}
	if _, err := uema(in, []float64{1}, 1, 1, WeightModeNormalized); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestWeightModeString(t *testing.T) {
	if WeightModeNormalized.String() != "normalized" || WeightModeStrict.String() != "strict" {
		t.Error("WeightMode.String broken")
	}
	if WeightMode(99).String() == "" {
		t.Error("unknown WeightMode should still stringify")
	}
}

func TestUMAWindowZeroIsIdentityNormalized(t *testing.T) {
	in := []float64{5, 6, 7}
	sig := []float64{1, 2, 3}
	out, err := UncertainMovingAverage(in, sig, 0, WeightModeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if !almostEqual(out[i], in[i], 1e-12) {
			t.Errorf("w=0 normalized UMA should be identity, got %v", out)
		}
	}
}

func TestGenerators(t *testing.T) {
	sine := SineWave(100, 4, 0, 2) // period 4 hits the exact peak at i=1
	if !almostEqual(sine[0], 0, 1e-12) {
		t.Errorf("sine phase 0 should start at 0, got %v", sine[0])
	}
	_, max := stats.MinMax(sine)
	if !almostEqual(max, 2, 1e-9) {
		t.Errorf("sine amplitude = %v, want 2", max)
	}

	bump := GaussianBump(100, 50, 5, 3)
	if !almostEqual(bump[50], 3, 1e-12) {
		t.Errorf("bump peak = %v, want 3", bump[50])
	}
	if bump[0] > 1e-10 {
		t.Errorf("bump tail should vanish, got %v", bump[0])
	}

	p := Plateau(10, 3, 7, 2)
	if p[2] != 0 || p[3] != 2 || p[6] != 2 || p[7] != 0 {
		t.Errorf("plateau wrong: %v", p)
	}

	r := Ramp(10, 2, 8, 6, true)
	if r[2] != 0 || !almostEqual(r[5], 3, 1e-12) {
		t.Errorf("rising ramp wrong: %v", r)
	}
	rf := Ramp(10, 2, 8, 6, false)
	if !almostEqual(rf[2], 6, 1e-12) {
		t.Errorf("falling ramp wrong: %v", rf)
	}
	if out := Ramp(10, 5, 5, 1, true); out[5] != 0 {
		t.Errorf("empty ramp should be zeros")
	}

	rng := stats.NewRand(1)
	walk := SmoothedRandomWalk(rng, 200, 1, 3)
	if len(walk) != 200 {
		t.Fatalf("walk length %d", len(walk))
	}
	// Smoothed walk must be strongly autocorrelated at lag 1.
	if lag1Autocorr(walk) < 0.9 {
		t.Errorf("smoothed walk lag-1 autocorrelation = %v, want > 0.9", lag1Autocorr(walk))
	}
}

func lag1Autocorr(xs []float64) float64 {
	mu := stats.Mean(xs)
	var num, den float64
	for i := 0; i < len(xs)-1; i++ {
		num += (xs[i] - mu) * (xs[i+1] - mu)
	}
	for _, x := range xs {
		den += (x - mu) * (x - mu)
	}
	return num / den
}

func TestAddScale(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{10, 20}
	sum := Add(a, b)
	if sum[0] != 11 || sum[1] != 22 {
		t.Errorf("Add = %v", sum)
	}
	sc := Scale(a, 3)
	if sc[0] != 3 || sc[1] != 6 {
		t.Errorf("Scale = %v", sc)
	}
	if a[0] != 1 {
		t.Error("Scale must not mutate")
	}
}

func TestWarpPreservesLengthAndRange(t *testing.T) {
	rng := stats.NewRand(2)
	in := SineWave(128, 32, 0, 1)
	out := Warp(rng, in, 0.3)
	if len(out) != len(in) {
		t.Fatalf("warp changed length: %d", len(out))
	}
	lo, hi := stats.MinMax(out)
	if lo < -1-1e-9 || hi > 1+1e-9 {
		t.Errorf("warp must not exceed the input range: [%v, %v]", lo, hi)
	}
	// Zero warp is identity.
	id := Warp(rng, in, 0)
	for i := range in {
		if id[i] != in[i] {
			t.Fatal("zero-amount warp should be identity")
		}
	}
	// Short inputs pass through.
	short := Warp(rng, []float64{5}, 0.5)
	if len(short) != 1 || short[0] != 5 {
		t.Errorf("short warp = %v", short)
	}
}
