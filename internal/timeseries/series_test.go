package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"uncertts/internal/stats"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestNewCopiesInput(t *testing.T) {
	raw := []float64{1, 2, 3}
	s := New(raw)
	raw[0] = 99
	if s.Values[0] != 1 {
		t.Error("New must copy its input")
	}
	if s.Len() != 3 || s.At(2) != 3 {
		t.Errorf("Len/At wrong: %v", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New([]float64{1, 2})
	s.Label = 4
	s.ID = 9
	c := s.Clone()
	c.Values[0] = 42
	if s.Values[0] != 1 {
		t.Error("Clone must not share backing storage")
	}
	if c.Label != 4 || c.ID != 9 {
		t.Error("Clone must preserve metadata")
	}
}

func TestNormalize(t *testing.T) {
	s := New([]float64{10, 20, 30, 40, 50})
	n := s.Normalize()
	if !isNormalized(n, 1e-12) {
		t.Errorf("normalized series has mean=%v sd=%v", n.Mean(), n.StdDev())
	}
	// Original untouched.
	if s.Values[0] != 10 {
		t.Error("Normalize must not mutate the receiver")
	}
}

func TestNormalizeConstantSeries(t *testing.T) {
	s := New([]float64{5, 5, 5})
	n := s.Normalize()
	for _, v := range n.Values {
		if v != 0 {
			t.Errorf("constant series should normalize to zeros, got %v", n.Values)
		}
	}
}

func TestNormalizeEmpty(t *testing.T) {
	s := New(nil)
	n := s.Normalize()
	if n.Len() != 0 {
		t.Error("empty normalize should stay empty")
	}
	if !isNormalized(s, 1e-12) {
		t.Error("empty series counts as normalized")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		if stats.StdDevOf(raw) == 0 {
			return true
		}
		n := New(raw).Normalize()
		return isNormalized(n, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResampleIdentity(t *testing.T) {
	s := New([]float64{1, 3, 2, 5})
	r, err := s.Resample(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Values {
		if !almostEqual(r.Values[i], s.Values[i], 1e-12) {
			t.Errorf("identity resample differs at %d: %v vs %v", i, r.Values[i], s.Values[i])
		}
	}
}

func TestResampleEndpointsPreserved(t *testing.T) {
	s := New([]float64{-2, 0, 1, 7})
	for _, n := range []int{2, 3, 7, 50, 1000} {
		r, err := s.Resample(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != n {
			t.Fatalf("resample to %d gave length %d", n, r.Len())
		}
		if !almostEqual(r.Values[0], -2, 1e-12) || !almostEqual(r.Values[n-1], 7, 1e-12) {
			t.Errorf("endpoints not preserved for n=%d: %v .. %v", n, r.Values[0], r.Values[n-1])
		}
	}
}

func TestResampleUpDownRoundTrip(t *testing.T) {
	// Upsampling then downsampling back to the original grid is exact for
	// piecewise-linear data, and the original sample points lie on the
	// piecewise-linear interpolant.
	s := New([]float64{0, 1, 4, 9, 16, 25})
	up, err := s.Resample(51) // 10x + 1 keeps original points on the grid
	if err != nil {
		t.Fatal(err)
	}
	down, err := up.Resample(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Values {
		if !almostEqual(down.Values[i], s.Values[i], 1e-9) {
			t.Errorf("round trip differs at %d: %v vs %v", i, down.Values[i], s.Values[i])
		}
	}
}

func TestResampleDegenerate(t *testing.T) {
	if _, err := New(nil).Resample(5); err == nil {
		t.Error("resampling an empty series should error")
	}
	if _, err := New([]float64{1, 2}).Resample(0); err == nil {
		t.Error("resampling to zero length should error")
	}
	one, err := New([]float64{3}).Resample(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range one.Values {
		if v != 3 {
			t.Errorf("length-1 series should resample to constant, got %v", one.Values)
		}
	}
	single, err := New([]float64{1, 2, 3}).Resample(1)
	if err != nil || single.Values[0] != 1 {
		t.Errorf("resample to 1 should return first point, got %v, %v", single.Values, err)
	}
}

func TestTruncate(t *testing.T) {
	s := New([]float64{1, 2, 3, 4, 5})
	tr := s.Truncate(3)
	if tr.Len() != 3 || tr.Values[2] != 3 {
		t.Errorf("truncate(3) = %v", tr.Values)
	}
	if got := s.Truncate(10); got.Len() != 5 {
		t.Errorf("over-truncation should keep full series, got %d", got.Len())
	}
	if got := s.Truncate(-1); got.Len() != 0 {
		t.Errorf("negative truncation should give empty, got %d", got.Len())
	}
	// Shared storage check.
	tr.Values[0] = 42
	if s.Values[0] != 1 {
	} else if tr.Values[0] == s.Values[0] {
		t.Error("truncate must copy")
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := Dataset{Name: "toy", Series: []Series{
		New([]float64{1, 2, 3, 4}),
		New([]float64{5, 6}),
	}}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	all := d.AllValues()
	if len(all) != 6 || all[4] != 5 {
		t.Errorf("AllValues = %v", all)
	}
}

func TestDatasetTruncated(t *testing.T) {
	d := Dataset{Name: "toy"}
	for i := 0; i < 100; i++ {
		s := New([]float64{1, 2, 3, 4, 5, 6, 7, 8})
		s.ID = i + 1000
		d.Series = append(d.Series, s)
	}
	tr := d.Truncated(60, 6)
	if tr.Len() != 60 {
		t.Errorf("Truncated kept %d series, want 60", tr.Len())
	}
	for i, s := range tr.Series {
		if s.Len() != 6 {
			t.Errorf("series %d has length %d, want 6", i, s.Len())
		}
		if s.ID != i {
			t.Errorf("series %d should be re-IDed to %d, got %d", i, i, s.ID)
		}
	}
	// Truncating more than available keeps all.
	tr2 := d.Truncated(500, 4)
	if tr2.Len() != 100 {
		t.Errorf("over-truncation kept %d, want 100", tr2.Len())
	}
}

func TestDatasetResampled(t *testing.T) {
	d := Dataset{Name: "toy", Series: []Series{
		New([]float64{1, 2, 3}),
		New([]float64{4, 5, 6, 7}),
	}}
	r, err := d.Resampled(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		if s.Len() != 10 {
			t.Errorf("resampled length %d, want 10", s.Len())
		}
	}
	bad := Dataset{Name: "bad", Series: []Series{New(nil)}}
	if _, err := bad.Resampled(10); err == nil {
		t.Error("resampling empty series should propagate an error")
	}
}

func TestDatasetNormalize(t *testing.T) {
	d := Dataset{Name: "toy", Series: []Series{New([]float64{10, 20, 30})}}
	d.Normalize()
	if !isNormalized(d.Series[0], 1e-9) {
		t.Errorf("dataset normalize failed: %v", d.Series[0].Values)
	}
}

// isNormalized reports whether the series has zero mean and unit variance
// within tolerance tol.
func isNormalized(s Series, tol float64) bool {
	if s.Len() == 0 {
		return true
	}
	return math.Abs(s.Mean()) <= tol && math.Abs(s.StdDev()-1) <= tol
}
