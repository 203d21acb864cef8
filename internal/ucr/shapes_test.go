package ucr

import (
	"math"
	"slices"
	"testing"

	"uncertts/internal/stats"
)

func TestShapeFamilyRouting(t *testing.T) {
	withFamily := []string{"ECG200", "Coffee", "OliveOil", "Beef", "Adiac",
		"FISH", "OSULeaf", "SwedishLeaf", "FaceAll", "FaceFour",
		"Lighting2", "Lighting7", "Trace", "50words"}
	for _, name := range withFamily {
		if shapeFamily(name) == nil {
			t.Errorf("%s should have a dedicated shape family", name)
		}
	}
	for _, name := range []string{"CBF", "GunPoint", "syntheticControl", "unknown"} {
		if shapeFamily(name) != nil {
			t.Errorf("%s should not route through shapeFamily", name)
		}
	}
}

func TestShapePrototypesFiniteAndVaried(t *testing.T) {
	rng := stats.NewRand(5)
	for _, name := range []string{"ECG200", "Coffee", "Adiac", "Lighting2", "Trace", "50words"} {
		family := shapeFamily(name)
		for class := 0; class < 4; class++ {
			proto := family(class, 128, rng)
			if len(proto) != 128 {
				t.Fatalf("%s class %d: length %d", name, class, len(proto))
			}
			for i, v := range proto {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s class %d: bad value at %d: %v", name, class, i, v)
				}
			}
			if stats.Variance(proto) == 0 {
				t.Errorf("%s class %d: constant prototype", name, class)
			}
		}
	}
}

func TestECGClassesDiffer(t *testing.T) {
	// The ischemia-style class must have lower peak amplitude relative to
	// its own spread than the normal class (depressed R wave).
	rng := stats.NewRand(7)
	normal := ecgPrototype(0, 256, rng)
	rng2 := stats.NewRand(7)
	abnormal := ecgPrototype(1, 256, rng2)
	_, maxN := stats.MinMax(normal)
	_, maxA := stats.MinMax(abnormal)
	if maxA >= maxN {
		t.Errorf("abnormal R amplitude (%v) should be below normal (%v)", maxA, maxN)
	}
}

func TestSpectrumHasAbsorptionDips(t *testing.T) {
	rng := stats.NewRand(9)
	spec := spectrumPrototype(0, 256, rng)
	// The spectrum must dip below its own smooth baseline somewhere: check
	// that the minimum is well below the median.
	sorted := slices.Sorted(slices.Values(spec))
	med := (sorted[127] + sorted[128]) / 2
	lo, _ := stats.MinMax(spec)
	if med-lo < 0.3 {
		t.Errorf("no visible absorption dip: median %v, min %v", med, lo)
	}
}

func TestContourIsPeriodicLike(t *testing.T) {
	// Contours describe closed shapes: first and last values should be
	// close (one full revolution).
	rng := stats.NewRand(11)
	c := contourPrototype(0, 256, rng)
	span := maxAbs(c)
	if math.Abs(c[0]-c[255]) > 0.25*span {
		t.Errorf("contour endpoints too far apart: %v vs %v (span %v)", c[0], c[255], span)
	}
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func TestTransientStartsQuiet(t *testing.T) {
	rng := stats.NewRand(13)
	tr := transientPrototype(0, 256, rng)
	if tr[0] != 0 {
		t.Errorf("transient should start at baseline, got %v", tr[0])
	}
	if maxAbs(tr) < 1 {
		t.Error("transient should contain a visible burst")
	}
}

func TestTraceClassShapes(t *testing.T) {
	rng := stats.NewRand(15)
	for class := 0; class < 4; class++ {
		p := tracePrototype(class, 200, rng)
		if p[0] != 0 {
			t.Errorf("class %d: should start at baseline", class)
		}
		if stats.Variance(p) == 0 {
			t.Errorf("class %d: no feature generated", class)
		}
	}
}

func TestSpecializedDatasetsStillSeparate(t *testing.T) {
	// The specialized families must preserve the within < between class
	// distance property the experiments rely on. 50words has 50 classes,
	// so it needs enough series for same-class pairs to exist at all.
	for _, c := range []struct {
		name   string
		series int
	}{
		{"ECG200", 24}, {"Lighting7", 24}, {"FaceFour", 24}, {"50words", 104},
	} {
		ds, err := Generate(c.name, Options{MaxSeries: c.series, Length: 96, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		rep := separation(ds, c.series)
		if !(rep.WithinMean < rep.BetweenMean) {
			t.Errorf("%s: within %v not below between %v", c.name, rep.WithinMean, rep.BetweenMean)
		}
	}
}

func TestMinMaxHelpers(t *testing.T) {
	if min(2, 3) != 2 || min(3, 2) != 2 || max(2, 3) != 3 || max(3, 2) != 3 {
		t.Error("min/max helpers broken")
	}
}
