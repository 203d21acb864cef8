package ucr

import (
	"math"
	"math/rand"

	"uncertts/internal/timeseries"
)

// This file holds the domain-specific prototype generators. Every UCR
// stand-in gets a shape family that mimics what the real dataset measures,
// so that within-class similarity, between-class contrast and the value
// distribution all resemble the originals:
//
//	ECG200                 — PQRST heartbeat complexes
//	Coffee, OliveOil, Beef — spectra: smooth baseline + absorption peaks
//	Adiac, FISH, OSULeaf,
//	SwedishLeaf, FaceAll,
//	FaceFour               — closed contours unrolled to 1-D (Fourier shape
//	                          descriptors with class-specific harmonics)
//	Lighting2, Lighting7   — transient bursts with exponential decay
//	Trace                  — step transients with class-dependent oscillation
//	50words                — word profiles: piecewise smooth strokes
//
// CBF, syntheticControl and GunPoint have their classic constructions in
// ucr.go.

// ecgPrototype builds a PQRST-like heartbeat: small P wave, sharp QRS
// complex, broad T wave, repeated over the series. Class differences mimic
// the normal-vs-ischemia split of ECG200: class 1 has a depressed, widened
// ST segment and lower R amplitude.
func ecgPrototype(class, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	beat := 40 + rng.Intn(12) // samples per heartbeat
	rAmp := 3.0
	tAmp := 0.8
	stShift := 0.0
	if class%2 == 1 {
		rAmp = 2.2
		tAmp = 0.45
		stShift = -0.35
	}
	for start := 0; start < n; start += beat {
		addWave := func(center, width, amp float64) {
			for i := max(0, int(center-4*width)); i < n && float64(i) < center+4*width; i++ {
				z := (float64(i) - center) / width
				out[i] += amp * math.Exp(-z*z/2)
			}
		}
		b := float64(start)
		w := float64(beat)
		addWave(b+0.15*w, 0.03*w, 0.4)   // P
		addWave(b+0.32*w, 0.012*w, -0.6) // Q
		addWave(b+0.36*w, 0.015*w, rAmp) // R
		addWave(b+0.40*w, 0.012*w, -0.9) // S
		addWave(b+0.62*w, 0.07*w, tAmp)  // T
		if stShift != 0 {
			for i := start + int(0.42*w); i < start+int(0.58*w) && i < n; i++ {
				out[i] += stShift
			}
		}
	}
	return out
}

// spectrumPrototype builds an absorption spectrum: a smooth decaying
// baseline with class-specific absorption peaks at seeded wavelengths —
// the shape family of Coffee (arabica/robusta), OliveOil and Beef
// spectrograms.
func spectrumPrototype(class, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	// Baseline: gentle polynomial decay.
	a := 0.5 + rng.Float64()
	b := rng.Float64() * 2
	for i := range out {
		x := float64(i) / float64(n)
		out[i] = a*(1-x)*(1-x) + b*(1-x)
	}
	// Class-specific absorption peaks.
	peaks := 3 + rng.Intn(4)
	for p := 0; p < peaks; p++ {
		center := rng.Float64() * float64(n)
		width := float64(n) * (0.01 + rng.Float64()*0.05)
		depth := 0.5 + rng.Float64()*2
		for i := range out {
			z := (float64(i) - center) / width
			out[i] -= depth * math.Exp(-z*z/2)
		}
	}
	_ = class
	return out
}

// contourPrototype builds a closed-contour descriptor unrolled to 1-D: a
// truncated Fourier series over one period with class-specific harmonic
// amplitudes and phases. This is how leaf outlines (SwedishLeaf, OSULeaf),
// diatoms (Adiac), fish (FISH) and head profiles (FaceAll, FaceFour) are
// classically encoded.
func contourPrototype(class, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	harmonics := 3 + rng.Intn(5)
	for h := 1; h <= harmonics; h++ {
		amp := (0.5 + rng.Float64()) / float64(h) // 1/f-ish spectrum
		phase := rng.Float64() * 2 * math.Pi
		for i := range out {
			theta := 2 * math.Pi * float64(i) / float64(n)
			out[i] += amp * math.Cos(float64(h)*theta+phase)
		}
	}
	// Lobes: leaves and diatoms have k-fold symmetry; pick k per class.
	k := 2 + rng.Intn(6)
	lobeAmp := 0.3 + rng.Float64()*0.7
	for i := range out {
		theta := 2 * math.Pi * float64(i) / float64(n)
		out[i] += lobeAmp * math.Abs(math.Sin(float64(k)*theta/2))
	}
	_ = class
	return out
}

// transientPrototype builds lightning-style transients (Lighting2/7): a
// quiet baseline, then one or more sharp onsets with exponential decay at
// class-specific positions and rates.
func transientPrototype(class, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	bursts := 1 + rng.Intn(3)
	for b := 0; b < bursts; b++ {
		onset := rng.Intn(n * 3 / 4)
		amp := 2 + rng.Float64()*3
		decay := 5 + rng.Float64()*20
		for i := onset; i < n; i++ {
			out[i] += amp * math.Exp(-float64(i-onset)/decay)
		}
		// Sub-oscillation riding on the decay.
		period := 4 + rng.Float64()*12
		for i := onset; i < n; i++ {
			out[i] += 0.3 * amp * math.Exp(-float64(i-onset)/decay) *
				math.Sin(2*math.Pi*float64(i-onset)/period)
		}
	}
	_ = class
	return out
}

// tracePrototype builds the Trace-style instrumentation transients: a flat
// run, a class-dependent feature (step, ramp or oscillation packet), then a
// return to baseline.
func tracePrototype(class, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	start := n/4 + rng.Intn(n/8)
	end := start + n/4
	if end > n {
		end = n
	}
	switch class % 4 {
	case 0: // step up
		for i := start; i < n; i++ {
			out[i] = 2
		}
	case 1: // ramp then drop
		for i := start; i < end; i++ {
			out[i] = 2 * float64(i-start) / float64(end-start)
		}
	case 2: // oscillation packet
		for i := start; i < end; i++ {
			out[i] = 1.5 * math.Sin(2*math.Pi*float64(i-start)/12)
		}
	default: // step with overshoot
		for i := start; i < n; i++ {
			out[i] = 2
		}
		for i := start; i < min(start+8, n); i++ {
			out[i] += 1.5 * math.Exp(-float64(i-start)/3)
		}
	}
	return out
}

// wordPrototype builds 50words-style word profiles: a few smooth strokes
// (Gaussian arcs) of varying width laid out left to right, one layout per
// class.
func wordPrototype(class, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	strokes := 2 + rng.Intn(4)
	pos := 0.1 + rng.Float64()*0.1
	for s := 0; s < strokes && pos < 0.95; s++ {
		width := 0.03 + rng.Float64()*0.12
		height := 0.8 + rng.Float64()*2.4
		if rng.Intn(3) == 0 {
			height = -height
		}
		center := pos * float64(n)
		w := width * float64(n)
		for i := range out {
			z := (float64(i) - center) / w
			out[i] += height * math.Exp(-z*z/2)
		}
		pos += width*2 + rng.Float64()*0.1
	}
	_ = class
	return out
}

// shapeFamily routes each dataset to its generator; datasets without a
// special family use the generic harmonic prototype.
func shapeFamily(name string) func(class, n int, rng *rand.Rand) []float64 {
	switch name {
	case "ECG200":
		return ecgPrototype
	case "Coffee", "OliveOil", "Beef":
		return spectrumPrototype
	case "Adiac", "FISH", "OSULeaf", "SwedishLeaf", "FaceAll", "FaceFour":
		return contourPrototype
	case "Lighting2", "Lighting7":
		return transientPrototype
	case "Trace":
		return tracePrototype
	case "50words":
		return wordPrototype
	default:
		return nil
	}
}

// smoothSeries applies light smoothing so prototype discontinuities (steps,
// burst onsets) keep realistic slew rates after sampling.
func smoothSeries(xs []float64) []float64 {
	return timeseries.MovingAverage(xs, 1)
}
