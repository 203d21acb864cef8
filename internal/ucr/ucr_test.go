package ucr

import (
	"math"
	"testing"

	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
)

func TestSpecsComplete(t *testing.T) {
	s := Specs()
	if len(s) != 17 {
		t.Fatalf("want 17 datasets, got %d", len(s))
	}
	seen := map[string]bool{}
	for _, spec := range s {
		if seen[spec.Name] {
			t.Errorf("duplicate dataset %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Classes < 2 {
			t.Errorf("%s: classes = %d", spec.Name, spec.Classes)
		}
		if spec.Series < spec.Classes {
			t.Errorf("%s: fewer series than classes", spec.Name)
		}
		if spec.Length < 32 {
			t.Errorf("%s: length = %d", spec.Name, spec.Length)
		}
	}
	// The paper reports on average about 502 series of length about 290;
	// our specs average to the same order of magnitude.
	var sumSeries, sumLen int
	for _, spec := range s {
		sumSeries += spec.Series
		sumLen += spec.Length
	}
	avgSeries := sumSeries / len(s)
	avgLen := sumLen / len(s)
	if avgSeries < 300 || avgSeries > 700 {
		t.Errorf("average cardinality %d too far from the paper's 502", avgSeries)
	}
	if avgLen < 200 || avgLen > 400 {
		t.Errorf("average length %d too far from the paper's 290", avgLen)
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("nope", Options{}); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{MaxSeries: 12, Length: 64, Seed: 5}
	a, err := Generate("CBF", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("CBF", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Values {
			if a.Series[i].Values[j] != b.Series[i].Values[j] {
				t.Fatal("generation is not deterministic")
			}
		}
	}
	c, err := Generate("CBF", Options{MaxSeries: 12, Length: 64, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Series[0].Values[0] == a.Series[0].Values[0] &&
		c.Series[0].Values[1] == a.Series[0].Values[1] &&
		c.Series[0].Values[2] == a.Series[0].Values[2] {
		t.Error("different seeds should give different data")
	}
}

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate("GunPoint", Options{MaxSeries: 20, Length: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 20 {
		t.Errorf("series count = %d", ds.Len())
	}
	for _, s := range ds.Series {
		if s.Len() != 80 {
			t.Errorf("series %d length = %d", s.ID, s.Len())
		}
		if math.Abs(s.Mean()) > 1e-6 || math.Abs(s.StdDev()-1) > 1e-6 {
			t.Errorf("series %d not z-normalized: mean=%v sd=%v", s.ID, s.Mean(), s.StdDev())
		}
	}
	counts := classCounts(ds)
	if len(counts) != 2 {
		t.Errorf("GunPoint should have 2 classes, got %v", counts)
	}
}

func TestClassSeparation(t *testing.T) {
	// Same-class series must be closer than different-class series on
	// average — otherwise nearest-neighbour ground truth is meaningless.
	for _, name := range []string{"CBF", "syntheticControl", "GunPoint", "Trace", "Coffee"} {
		ds, err := Generate(name, Options{MaxSeries: 36, Length: 96, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rep := separation(ds, 36)
		if !(rep.WithinMean < rep.BetweenMean) {
			t.Errorf("%s: within-class mean %v not below between-class mean %v",
				name, rep.WithinMean, rep.BetweenMean)
		}
	}
}

func TestValuesNotUniform(t *testing.T) {
	// Mirror of the paper's Section 4.1.1: chi-square must reject
	// uniformity of the value distribution at alpha = 0.01 for every
	// dataset.
	for _, ds := range GenerateAll(Options{MaxSeries: 30, Length: 128, Seed: 3}) {
		res, err := stats.ChiSquareUniformTest(ds.AllValues(), 20)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if !res.Reject(0.01) {
			t.Errorf("%s: uniformity not rejected (%v)", ds.Name, res)
		}
	}
}

func TestTemporalCorrelation(t *testing.T) {
	// The UMA/UEMA result hinges on neighbouring points being correlated.
	for _, name := range []string{"50words", "ECG200", "FaceFour"} {
		ds, err := Generate(name, Options{MaxSeries: 10, Length: 128, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ds.Series[:3] {
			var num, den float64
			mu := s.Mean()
			for i := 0; i < s.Len()-1; i++ {
				num += (s.Values[i] - mu) * (s.Values[i+1] - mu)
			}
			for _, v := range s.Values {
				den += (v - mu) * (v - mu)
			}
			// ECG-style series have sharp QRS spikes and legitimately sit a
			// little lower than smooth shapes; 0.7 is still strongly
			// correlated (white noise sits near 0).
			if ac := num / den; ac < 0.7 {
				t.Errorf("%s series %d: lag-1 autocorrelation %v < 0.7", name, s.ID, ac)
			}
		}
	}
}

func TestGenerateAllRespectsCaps(t *testing.T) {
	all := GenerateAll(Options{MaxSeries: 8, Length: 50, Seed: 1})
	if len(all) != 17 {
		t.Fatalf("want 17 datasets, got %d", len(all))
	}
	for _, ds := range all {
		if ds.Len() != 8 {
			t.Errorf("%s: %d series, want 8", ds.Name, ds.Len())
		}
		if avgLength(ds) != 50 {
			t.Errorf("%s: avg length %d, want 50", ds.Name, avgLength(ds))
		}
	}
}

func TestFullSpecSizesWithoutCap(t *testing.T) {
	ds, err := Generate("Beef", Options{Seed: 1}) // small full spec: 60 x 470
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 60 || avgLength(ds) != 470 {
		t.Errorf("Beef full size = %d x %d, want 60 x 470", ds.Len(), avgLength(ds))
	}
}

func TestAllPrototypeFamiliesProduceDistinctClasses(t *testing.T) {
	for _, name := range []string{"CBF", "syntheticControl"} {
		ds, err := Generate(name, Options{MaxSeries: 12, Length: 60, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		counts := classCounts(ds)
		if len(counts) < 3 {
			t.Errorf("%s: expected at least 3 classes, got %v", name, counts)
		}
	}
}

// classCounts returns how many series of each class the dataset holds.
func classCounts(d timeseries.Dataset) map[int]int {
	out := make(map[int]int)
	for _, s := range d.Series {
		out[s.Label]++
	}
	return out
}

// avgLength returns the average series length, rounded to nearest.
func avgLength(d timeseries.Dataset) int {
	if len(d.Series) == 0 {
		return 0
	}
	total := 0
	for _, s := range d.Series {
		total += s.Len()
	}
	return (total + len(d.Series)/2) / len(d.Series)
}

// separationReport summarises within- versus between-class Euclidean
// distances of a dataset: the generator is useful only if same-class series
// are closer than different-class ones on average.
type separationReport struct {
	WithinMean  float64
	BetweenMean float64
}

// separation computes the report over (at most) the first limit series.
func separation(d timeseries.Dataset, limit int) separationReport {
	n := len(d.Series)
	if limit > 0 && limit < n {
		n = limit
	}
	var within, between []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := d.Series[i], d.Series[j]
			if a.Len() != b.Len() {
				continue
			}
			var d2 float64
			for k := range a.Values {
				diff := a.Values[k] - b.Values[k]
				d2 += diff * diff
			}
			dist := math.Sqrt(d2)
			if a.Label == b.Label {
				within = append(within, dist)
			} else {
				between = append(between, dist)
			}
		}
	}
	return separationReport{WithinMean: stats.Mean(within), BetweenMean: stats.Mean(between)}
}
