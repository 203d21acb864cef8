package core

import (
	"math"
	"testing"

	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// testWorkload builds a small CBF-based workload with normal errors.
func testWorkload(t *testing.T, sigma float64, samplesPerTS int) *Workload {
	t.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: 30, Length: 48, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p, err := uncertain.NewConstantPerturber(uncertain.Normal, sigma, 48, 101)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(ds, p, WorkloadConfig{K: 5, SamplesPerTS: samplesPerTS})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorkloadGroundTruth(t *testing.T) {
	w := testWorkload(t, 0.3, 0)
	if w.Len() != 30 || w.SeriesLen() != 48 {
		t.Fatalf("workload shape %d x %d", w.Len(), w.SeriesLen())
	}
	for qi := 0; qi < w.Len(); qi++ {
		truth := w.Truth(qi)
		if len(truth) < w.K {
			t.Errorf("query %d: truth has %d entries, want >= %d", qi, len(truth), w.K)
		}
		for _, id := range truth {
			if id == qi {
				t.Errorf("query %d: truth contains the query itself", qi)
			}
		}
		if w.EpsEucl(qi) <= 0 {
			t.Errorf("query %d: eps = %v", qi, w.EpsEucl(qi))
		}
		cal := w.CalibrationNeighbor(qi)
		if cal < 0 || cal == qi {
			t.Errorf("query %d: calibration neighbour %d", qi, cal)
		}
		// The calibration neighbour must be in the truth set (it defines
		// the threshold).
		found := false
		for _, id := range truth {
			if id == cal {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("query %d: calibration neighbour %d not in truth %v", qi, cal, truth)
		}
	}
}

func TestNewWorkloadValidation(t *testing.T) {
	p, _ := uncertain.NewConstantPerturber(uncertain.Normal, 1, 10, 1)
	if _, err := NewWorkload(timeseries.Dataset{}, p, WorkloadConfig{}); err == nil {
		t.Error("empty dataset should error")
	}
	tiny := timeseries.Dataset{Series: []timeseries.Series{timeseries.New([]float64{1, 2})}}
	if _, err := NewWorkload(tiny, p, WorkloadConfig{K: 5}); err == nil {
		t.Error("K >= len should error")
	}
	ragged := timeseries.Dataset{Series: []timeseries.Series{
		timeseries.New([]float64{1, 2}),
		timeseries.New([]float64{1, 2, 3}),
	}}
	if _, err := NewWorkload(ragged, p, WorkloadConfig{K: 1}); err == nil {
		t.Error("ragged lengths should error")
	}
}

func TestWorkloadReportedSigmaDerived(t *testing.T) {
	w := testWorkload(t, 0.7, 0)
	if math.Abs(w.ReportedSigma-0.7) > 1e-9 {
		t.Errorf("derived sigma = %v, want 0.7", w.ReportedSigma)
	}
	for _, s := range w.Sigmas {
		if math.Abs(s-0.7) > 1e-9 {
			t.Errorf("per-timestamp sigma = %v", s)
		}
	}
}

func TestWorkloadMisreportedErrors(t *testing.T) {
	ds, _ := ucr.Generate("CBF", ucr.Options{MaxSeries: 12, Length: 32, Seed: 3})
	p, _ := uncertain.NewConstantPerturber(uncertain.Normal, 1.0, 32, 9)
	wrong := uncertain.MisreportSigma(uncertain.Normal, 0.5, 32)
	w, err := NewWorkload(ds, p, WorkloadConfig{K: 3, ReportedErrors: wrong})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.ReportedSigma-0.5) > 1e-9 {
		t.Errorf("reported sigma = %v, want the misreported 0.5", w.ReportedSigma)
	}
	// The PDF series must carry the misreported distributions.
	if math.Abs(w.PDF[0].Sigma(0)-0.5) > 1e-9 {
		t.Errorf("PDF series sigma = %v, want 0.5", w.PDF[0].Sigma(0))
	}
}
