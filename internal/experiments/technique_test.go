package experiments

import (
	"math"
	"reflect"
	"testing"

	"uncertts/internal/core"
	"uncertts/internal/distance"
	"uncertts/internal/engine"
	"uncertts/internal/query"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// cbfWorkload builds a small CBF-based workload with normal errors.
func cbfWorkload(t *testing.T, sigma float64, cfg core.WorkloadConfig) *core.Workload {
	t.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: 30, Length: 48, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p, err := uncertain.NewConstantPerturber(uncertain.Normal, sigma, 48, 101)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K == 0 {
		cfg.K = 5
	}
	w, err := core.NewWorkload(ds, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func meanF1Of(t *testing.T, w *core.Workload, tech Technique, queries []int) float64 {
	t.Helper()
	f1, err := meanF1(w, tech, queries)
	if err != nil {
		t.Fatalf("%v: %v", tech.Measure, err)
	}
	return f1
}

func TestEuclideanPerfectWithoutNoise(t *testing.T) {
	// With negligible perturbation, the Euclidean technique must reproduce
	// the ground truth almost exactly.
	w := cbfWorkload(t, 1e-9, core.WorkloadConfig{})
	if f1 := meanF1Of(t, w, techEuclidean, nil); f1 < 0.999 {
		t.Errorf("noise-free Euclidean F1 = %v, want ~1", f1)
	}
}

func TestTechniquesDegradeWithNoise(t *testing.T) {
	lowNoise := cbfWorkload(t, 0.2, core.WorkloadConfig{})
	highNoise := cbfWorkload(t, 2.0, core.WorkloadConfig{})
	for _, tech := range distanceTechniques {
		lo, hi := meanF1Of(t, lowNoise, tech, nil), meanF1Of(t, highNoise, tech, nil)
		if hi >= lo {
			t.Errorf("%v: F1 should degrade with noise: sigma=0.2 gives %v, sigma=2 gives %v", tech.Measure, lo, hi)
		}
	}
}

func TestUMABeatsEuclideanUnderNoise(t *testing.T) {
	// The paper's headline: the moving-average measures beat raw Euclidean
	// under meaningful noise because they exploit temporal correlation.
	w := cbfWorkload(t, 1.0, core.WorkloadConfig{})
	euF1 := meanF1Of(t, w, techEuclidean, nil)
	if umaF1 := meanF1Of(t, w, techUMA, nil); umaF1 <= euF1 {
		t.Errorf("UMA (%v) should beat Euclidean (%v) at sigma=1", umaF1, euF1)
	}
	if uemaF1 := meanF1Of(t, w, techUEMA, nil); uemaF1 <= euF1 {
		t.Errorf("UEMA (%v) should beat Euclidean (%v) at sigma=1", uemaF1, euF1)
	}
}

func TestPROUDTechnique(t *testing.T) {
	w := cbfWorkload(t, 0.4, core.WorkloadConfig{})
	// PROUD needs its tau calibrated (the paper uses "the optimal
	// probabilistic threshold tau determined after repeated experiments").
	proud, err := calibrated(w, engine.MeasurePROUD, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if f1 := meanF1Of(t, w, proud, nil); f1 < 0.3 {
		t.Errorf("PROUD F1 = %v at calibrated tau=%v, unreasonably low at sigma=0.4", f1, proud.Tau)
	}
	if _, err := Evaluate(w, Technique{Measure: engine.MeasurePROUD}, nil); err == nil {
		t.Error("tau=0 should be rejected")
	}
}

func TestMUNICHTechnique(t *testing.T) {
	ds, _ := ucr.Generate("GunPoint", ucr.Options{MaxSeries: 15, Length: 6, Seed: 5})
	p, _ := uncertain.NewConstantPerturber(uncertain.Normal, 0.3, 6, 4)
	w, err := core.NewWorkload(ds, p, core.WorkloadConfig{K: 3, SamplesPerTS: 5})
	if err != nil {
		t.Fatal(err)
	}
	munich := Technique{Measure: engine.MeasureMUNICH, Tau: 0.5}
	if meanF1Of(t, w, munich, nil) <= 0 {
		t.Error("MUNICH should produce non-zero F1 on an easy workload")
	}
	// Requires the sample model.
	if _, err := Evaluate(cbfWorkload(t, 0.3, core.WorkloadConfig{}), munich, nil); err == nil {
		t.Error("missing sample model should be rejected")
	}
	if _, err := Evaluate(w, Technique{Measure: engine.MeasureMUNICH}, nil); err == nil {
		t.Error("tau=0 should be rejected")
	}
}

func TestDTWTechnique(t *testing.T) {
	// DTW answers under the band of the workload's corpus: the default
	// length/10, or whatever WorkloadConfig.Band says (-1 = unconstrained).
	dtw := Technique{Measure: engine.MeasureDTW}
	for _, band := range []int{0, 3, -1} {
		w := cbfWorkload(t, 0.3, core.WorkloadConfig{Band: band})
		if meanF1Of(t, w, dtw, []int{0, 1, 2, 3}) <= 0 {
			t.Errorf("band %d: DTW produced zero F1 on an easy workload", band)
		}
	}
}

func TestEvaluateQuerySubset(t *testing.T) {
	w := cbfWorkload(t, 0.3, core.WorkloadConfig{})
	ms, err := Evaluate(w, techEuclidean, []int{0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("want 3 metric rows, got %d", len(ms))
	}
	if _, err := Evaluate(w, techEuclidean, []int{99}); err == nil {
		t.Error("out-of-range query index should error")
	}
}

func TestCalibrateTau(t *testing.T) {
	w := cbfWorkload(t, 0.5, core.WorkloadConfig{})
	proud := Technique{Measure: engine.MeasurePROUD}
	tau, f1, err := CalibrateTau(w, proud, []int{0, 1, 2, 3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0 || tau >= 1 {
		t.Errorf("calibrated tau = %v", tau)
	}
	if f1 < 0 || f1 > 1 {
		t.Errorf("calibrated F1 = %v", f1)
	}
	// The sweep thresholds one probability ranking per query; its F1 must be
	// the one the range query at that tau scores.
	proud.Tau = tau
	if got := meanF1Of(t, w, proud, []int{0, 1, 2, 3, 4}); got != f1 {
		t.Errorf("calibration reports F1 %v at tau %v, the range query at that tau scores %v", f1, tau, got)
	}
	// Custom grid must be honoured.
	tau2, _, err := CalibrateTau(w, proud, []int{0, 1}, []float64{0.42})
	if err != nil || tau2 != 0.42 {
		t.Errorf("single-point grid: tau=%v err=%v", tau2, err)
	}
}

func TestDUSTMixedErrors(t *testing.T) {
	// DUST must run with per-timestamp mixed error distributions (its
	// distinguishing capability).
	ds, _ := ucr.Generate("CBF", ucr.Options{MaxSeries: 14, Length: 32, Seed: 21})
	p, err := mixedPerturber([]uncertain.ErrorFamily{uncertain.Normal}, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorkload(ds, p, core.WorkloadConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if meanF1Of(t, w, techDUST, nil) <= 0 {
		t.Error("DUST with mixed errors produced zero F1")
	}
	// Reported sigma should be the root mean variance of the mixture.
	wantVar := 0.2*1.0 + 0.8*0.16
	if math.Abs(w.ReportedSigma-math.Sqrt(wantVar)) > 0.02 {
		t.Errorf("reported sigma %v, want about %v", w.ReportedSigma, math.Sqrt(wantVar))
	}
}

// TestFilterGeometryMatchesDefinition holds the answers of the Section 5
// parameter studies — UMA/UEMA under a window, decay or weight reading other
// than the workload corpus' own, served from a sibling corpus — against the
// definition: filter every observation sequence (Eq. 17/18), calibrate the
// threshold as the filtered distance to the K-th exact neighbour, scan. The
// degenerate corners UMA(0) and UEMA(w, 0), which the constructors answer
// as Euclidean and UMA, are held against their own filters too.
func TestFilterGeometryMatchesDefinition(t *testing.T) {
	w := cbfWorkload(t, 0.6, core.WorkloadConfig{})
	for _, tc := range []struct {
		name   string
		tech   Technique
		filter func(obs []float64) ([]float64, error)
	}{
		{"UMA(0)", UMA(0), func(obs []float64) ([]float64, error) {
			return timeseries.UncertainMovingAverage(obs, w.Sigmas, 0, timeseries.WeightModeNormalized)
		}},
		{"UMA(4)", UMA(4), func(obs []float64) ([]float64, error) {
			return timeseries.UncertainMovingAverage(obs, w.Sigmas, 4, timeseries.WeightModeNormalized)
		}},
		{"UMA-strict", Technique{Measure: engine.MeasureUMA, Mode: timeseries.WeightModeStrict}, func(obs []float64) ([]float64, error) {
			return timeseries.UncertainMovingAverage(obs, w.Sigmas, 2, timeseries.WeightModeStrict)
		}},
		{"UEMA(3,0.5)", UEMA(3, 0.5), func(obs []float64) ([]float64, error) {
			return timeseries.UncertainExponentialMovingAverage(obs, w.Sigmas, 3, 0.5, timeseries.WeightModeNormalized)
		}},
		{"UEMA(3,0)", UEMA(3, 0), func(obs []float64) ([]float64, error) {
			return timeseries.UncertainExponentialMovingAverage(obs, w.Sigmas, 3, 0, timeseries.WeightModeNormalized)
		}},
	} {
		filtered := make([][]float64, w.Len())
		for i, ps := range w.PDF {
			f, err := tc.filter(ps.Observations)
			if err != nil {
				t.Fatal(err)
			}
			filtered[i] = f
		}
		for qi := 0; qi < w.Len(); qi++ {
			dist := func(ci int) (float64, error) { return distance.Euclidean(filtered[qi], filtered[ci]) }
			eps, err := dist(w.CalibrationNeighbor(qi))
			if err != nil {
				t.Fatal(err)
			}
			want, err := query.RangeQueryFunc(w.Len(), qi, dist, eps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Match(w, tc.tech, qi)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s query %d: answered %v, the definition gives %v", tc.name, qi, got, want)
			}
		}
	}
}
