// Package ucr generates deterministic synthetic stand-ins for the 17 UCR
// classification datasets the paper evaluates on (Section 4.1.1). The real
// archive is not redistributable and this build is offline, hence the
// substitution.
//
// What the experiments actually require from the data is:
//
//  1. class structure, so ground-truth nearest neighbours are meaningful;
//  2. strong temporal correlation between neighbouring points, the property
//     UMA/UEMA exploit; and
//  3. non-uniform value distributions (the paper's chi-square check).
//
// Each dataset is produced from per-class prototype shapes (classic
// cylinder-bell-funnel patterns, the six synthetic-control regimes, or
// seeded harmonic/bump prototypes for the remaining sets), with instances
// derived by smooth time warping plus low-amplitude smooth noise, then
// z-normalized. Cardinalities, lengths and class counts mirror the real
// archive (scaled caps keep experiment runtimes sane).
package ucr

import (
	"fmt"
	"math"
	"math/rand"

	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
)

// Spec describes one dataset: its name and the shape parameters mirrored
// from the real UCR archive (train+test joined, as the paper does).
type Spec struct {
	Name    string
	Classes int
	Series  int
	Length  int
}

// specs mirrors the 17 datasets of the paper, in its presentation order.
var specs = []Spec{
	{"50words", 50, 905, 270},
	{"Adiac", 37, 781, 176},
	{"Beef", 5, 60, 470},
	{"CBF", 3, 930, 128},
	{"Coffee", 2, 56, 286},
	{"ECG200", 2, 200, 96},
	{"FISH", 7, 350, 463},
	{"FaceAll", 14, 2250, 131},
	{"FaceFour", 4, 112, 350},
	{"GunPoint", 2, 200, 150},
	{"Lighting2", 2, 121, 637},
	{"Lighting7", 7, 143, 319},
	{"OSULeaf", 6, 442, 427},
	{"OliveOil", 4, 60, 570},
	{"SwedishLeaf", 15, 1125, 128},
	{"Trace", 4, 200, 275},
	{"syntheticControl", 6, 600, 60},
}

// Specs returns the 17 dataset specifications in the paper's order.
func Specs() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// Names returns the dataset names in order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Options controls generation.
type Options struct {
	// MaxSeries caps the number of series per dataset (0 = the spec's full
	// cardinality). Experiments use small caps for quick runs.
	MaxSeries int
	// Length overrides the series length (0 = the spec's length).
	Length int
	// Seed drives all randomness. The same (name, options) pair always
	// produces the identical dataset.
	Seed int64
}

// Generate produces the named dataset.
func Generate(name string, opts Options) (timeseries.Dataset, error) {
	for _, s := range specs {
		if s.Name == name {
			return generate(s, opts), nil
		}
	}
	return timeseries.Dataset{}, fmt.Errorf("ucr: unknown dataset %q (have %v)", name, Names())
}

// GenerateAll produces all 17 datasets.
func GenerateAll(opts Options) []timeseries.Dataset {
	out := make([]timeseries.Dataset, len(specs))
	for i, s := range specs {
		out[i] = generate(s, opts)
	}
	return out
}

func generate(spec Spec, opts Options) timeseries.Dataset {
	n := spec.Series
	if opts.MaxSeries > 0 && opts.MaxSeries < n {
		n = opts.MaxSeries
	}
	length := spec.Length
	if opts.Length > 0 {
		length = opts.Length
	}
	seed := opts.Seed ^ nameSeed(spec.Name)
	protoRng := stats.SplitRand(seed, 1)
	prototypes := make([][]float64, spec.Classes)
	for c := range prototypes {
		prototypes[c] = prototype(spec.Name, c, length, protoRng)
	}
	ds := timeseries.Dataset{Name: spec.Name, Series: make([]timeseries.Series, n)}
	for i := 0; i < n; i++ {
		rng := stats.SplitRand(seed, int64(i)+1000)
		class := i % spec.Classes
		inst := instance(prototypes[class], rng)
		timeseries.NormalizeInPlace(inst)
		ds.Series[i] = timeseries.Series{Values: inst, Label: class, ID: i}
	}
	return ds
}

// nameSeed hashes a dataset name into a seed (FNV-1a).
func nameSeed(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h)
}

// prototype builds the class-c prototype shape for the named dataset. The
// classic constructions (CBF, synthetic control, Gun Point) live here;
// every other dataset routes to its domain-specific shape family in
// shapes.go, falling back to the generic harmonic prototype.
func prototype(name string, class, length int, rng *rand.Rand) []float64 {
	switch name {
	case "CBF":
		return cbfPrototype(class, length)
	case "syntheticControl":
		return syntheticControlPrototype(class, length)
	case "GunPoint":
		return gunPointPrototype(class, length)
	}
	if family := shapeFamily(name); family != nil {
		return smoothSeries(family(class, length, rng))
	}
	return harmonicPrototype(class, length, rng)
}

// cbfPrototype produces the classic cylinder / bell / funnel shapes.
func cbfPrototype(class, n int) []float64 {
	start := n / 4
	end := 3 * n / 4
	switch class {
	case 0: // cylinder
		return timeseries.Plateau(n, start, end, 3)
	case 1: // bell: rising ramp
		return timeseries.Ramp(n, start, end, 3, true)
	default: // funnel: falling ramp
		return timeseries.Ramp(n, start, end, 3, false)
	}
}

// syntheticControlPrototype produces the six control-chart regimes.
func syntheticControlPrototype(class, n int) []float64 {
	out := make([]float64, n)
	switch class {
	case 0: // normal: flat
	case 1: // cyclic
		return timeseries.SineWave(n, float64(n)/4, 0, 2)
	case 2: // increasing trend
		for i := range out {
			out[i] = 4 * float64(i) / float64(n)
		}
	case 3: // decreasing trend
		for i := range out {
			out[i] = -4 * float64(i) / float64(n)
		}
	case 4: // upward shift
		for i := n / 2; i < n; i++ {
			out[i] = 3
		}
	default: // downward shift
		for i := n / 2; i < n; i++ {
			out[i] = -3
		}
	}
	return out
}

// gunPointPrototype mimics the gun-draw vs point motion: both are bumps,
// the gun class holds a plateau at the top.
func gunPointPrototype(class, n int) []float64 {
	bump := timeseries.GaussianBump(n, float64(n)/2, float64(n)/8, 3)
	if class == 0 {
		return bump
	}
	plat := timeseries.Plateau(n, 2*n/5, 3*n/5, 1.2)
	return timeseries.Add(bump, plat)
}

// harmonicPrototype builds a smooth class prototype from a seeded sum of
// sinusoids plus one or two Gaussian bumps; distinct classes get distinct
// draws, which keeps between-class distances healthy.
func harmonicPrototype(class, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	waves := 2 + rng.Intn(3)
	for w := 0; w < waves; w++ {
		period := float64(n) / (1 + rng.Float64()*6)
		phase := rng.Float64() * 2 * math.Pi
		amp := 0.5 + rng.Float64()*1.5
		out = timeseries.Add(out, timeseries.SineWave(n, period, phase, amp))
	}
	bumps := 1 + rng.Intn(2)
	for b := 0; b < bumps; b++ {
		center := rng.Float64() * float64(n)
		width := float64(n) * (0.03 + rng.Float64()*0.1)
		height := (rng.Float64()*2 - 1) * 3
		out = timeseries.Add(out, timeseries.GaussianBump(n, center, width, height))
	}
	_ = class // class identity comes from the RNG draw order
	return out
}

// instance derives one dataset member from a class prototype: smooth time
// warping for within-class variation plus low-amplitude smoothed noise.
func instance(proto []float64, rng *rand.Rand) []float64 {
	warped := timeseries.Warp(rng, proto, 0.25)
	noise := timeseries.SmoothedRandomWalk(rng, len(proto), 0.05, 2)
	// Center the noise walk so it does not drift the instance.
	mu := stats.Mean(noise)
	for i := range noise {
		noise[i] -= mu
	}
	return timeseries.Add(warped, noise)
}
