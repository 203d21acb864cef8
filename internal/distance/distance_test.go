package distance

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestEuclideanKnown(t *testing.T) {
	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 5, 1e-12) {
		t.Errorf("d = %v, want 5", d)
	}
}

func TestEuclideanErrors(t *testing.T) {
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	d, err := Euclidean(nil, nil)
	if err != nil || d != 0 {
		t.Errorf("empty inputs: d=%v err=%v", d, err)
	}
}

func TestSquaredEuclideanConsistent(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		x, y := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		d2, err1 := SquaredEuclidean(x, y)
		d, err2 := Euclidean(x, y)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(d*d, d2, 1e-9*(1+d2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetricProperties(t *testing.T) {
	// Symmetry, identity, triangle inequality for Euclidean on random triples.
	f := func(a, b, c [4]float64) bool {
		for _, arr := range [][4]float64{a, b, c} {
			for _, v := range arr {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
					return true
				}
			}
		}
		dab, _ := Euclidean(a[:], b[:])
		dba, _ := Euclidean(b[:], a[:])
		daa, _ := Euclidean(a[:], a[:])
		dac, _ := Euclidean(a[:], c[:])
		dcb, _ := Euclidean(c[:], b[:])
		if dab != dba || daa != 0 {
			return false
		}
		return dab <= dac+dcb+1e-9*(1+dab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDTWEqualsEuclideanOnAlignedSeries(t *testing.T) {
	// When the optimal path is the diagonal (identical series), DTW = 0 and
	// generally DTW <= Euclidean.
	x := []float64{1, 2, 3, 2, 1}
	d, err := DTWBand(x, x, -1)
	if err != nil || d != 0 {
		t.Errorf("DTWBand(x, x, -1) = %v (%v), want 0", d, err)
	}
	y := []float64{1, 2, 4, 2, 1}
	dtw, _ := DTWBand(x, y, -1)
	eucl, _ := Euclidean(x, y)
	if dtw > eucl+1e-12 {
		t.Errorf("DTW (%v) must not exceed Euclidean (%v)", dtw, eucl)
	}
}

func TestDTWHandlesShift(t *testing.T) {
	// A shifted copy of a pattern is close under DTW but far under Euclidean.
	x := []float64{0, 0, 1, 2, 1, 0, 0, 0}
	y := []float64{0, 0, 0, 1, 2, 1, 0, 0}
	dtw, err := DTWBand(x, y, -1)
	if err != nil {
		t.Fatal(err)
	}
	eucl, _ := Euclidean(x, y)
	if dtw >= eucl {
		t.Errorf("DTW (%v) should beat Euclidean (%v) on shifted patterns", dtw, eucl)
	}
	if dtw > 1e-9 {
		t.Errorf("DTW of a pure shift should be ~0, got %v", dtw)
	}
}

func TestDTWUnequalLengths(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 1, 2, 2, 3, 3}
	d, err := DTWBand(x, y, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Errorf("DTW of stuttered copy should be ~0, got %v", d)
	}
}

func TestDTWBand(t *testing.T) {
	x := []float64{0, 0, 1, 2, 1, 0, 0, 0}
	y := []float64{0, 0, 0, 1, 2, 1, 0, 0}
	full, _ := DTWBand(x, y, -1)
	banded, err := DTWBand(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if banded < full-1e-12 {
		t.Errorf("banded DTW (%v) cannot beat unconstrained (%v)", banded, full)
	}
	wide, err := DTWBand(x, y, 100)
	if err != nil || !almostEqual(wide, full, 1e-12) {
		t.Errorf("very wide band (%v) should equal unconstrained (%v)", wide, full)
	}
	// Band 0 on equal lengths forces the diagonal = Euclidean.
	b0, err := DTWBand(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	eucl, _ := Euclidean(x, y)
	if !almostEqual(b0, eucl, 1e-12) {
		t.Errorf("band-0 DTW = %v, want Euclidean %v", b0, eucl)
	}
}

func TestDTWErrors(t *testing.T) {
	if _, err := DTWBand(nil, []float64{1}, -1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := DTWBand([]float64{1}, []float64{1, 2, 3, 4}, 1); err == nil {
		t.Error("band narrower than length difference should error")
	}
}

func TestDTWSymmetry(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				return true
			}
		}
		half := len(raw) / 2
		x, y := raw[:half], raw[half:]
		dxy, err1 := DTWBand(x, y, -1)
		dyx, err2 := DTWBand(y, x, -1)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(dxy, dyx, 1e-9*(1+dxy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
