package uncertain

import (
	"math"
	"testing"

	"uncertts/internal/stats"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestPDFSeriesValidate(t *testing.T) {
	good := PDFSeries{
		Observations: []float64{1, 2},
		Errors:       []stats.Dist{stats.NewNormal(0, 1), stats.NewNormal(0, 1)},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
	if err := (PDFSeries{}).Validate(); err == nil {
		t.Error("empty series should fail validation")
	}
	bad := PDFSeries{Observations: []float64{1, 2}, Errors: []stats.Dist{stats.NewNormal(0, 1)}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched lengths should fail validation")
	}
	nilErr := PDFSeries{Observations: []float64{1}, Errors: []stats.Dist{nil}}
	if err := nilErr.Validate(); err == nil {
		t.Error("nil error distribution should fail validation")
	}
}

func TestPDFSeriesSigmas(t *testing.T) {
	p := PDFSeries{
		Observations: []float64{0, 0, 0},
		Errors: []stats.Dist{
			stats.NewNormal(0, 0.5),
			stats.NewUniformByStdDev(1.5),
			stats.NewExponentialByStdDev(2),
		},
	}
	want := []float64{0.5, 1.5, 2}
	for i, w := range want {
		if !almostEqual(p.Sigma(i), w, 1e-12) {
			t.Errorf("Sigma(%d) = %v, want %v", i, p.Sigma(i), w)
		}
	}
	sig := p.Sigmas()
	for i, w := range want {
		if !almostEqual(sig[i], w, 1e-12) {
			t.Errorf("Sigmas()[%d] = %v, want %v", i, sig[i], w)
		}
	}
}

func TestSampleSeriesValidate(t *testing.T) {
	good := SampleSeries{Samples: [][]float64{{1, 2}, {3, 4}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid sample series rejected: %v", err)
	}
	if err := (SampleSeries{}).Validate(); err == nil {
		t.Error("empty sample series should fail")
	}
	bad := SampleSeries{Samples: [][]float64{{1}, {}}}
	if err := bad.Validate(); err == nil {
		t.Error("timestamp with no observations should fail")
	}
}

func TestSampleSeriesHelpers(t *testing.T) {
	s := SampleSeries{Samples: [][]float64{{1, 3}, {5, 5, 5}}}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.SamplesPerTimestamp() != 3 {
		t.Errorf("SamplesPerTimestamp = %d, want 3", s.SamplesPerTimestamp())
	}
	lo, hi := s.MinMaxAt(0)
	if lo != 1 || hi != 3 {
		t.Errorf("MinMaxAt = %v, %v", lo, hi)
	}
}
