package uncertts

// Cross-module integration tests: the full pipeline — synthetic dataset,
// perturbation, workload construction, every technique — exercised as a
// matrix over error families and uncertainty levels, plus end-to-end
// invariants that individual package tests cannot see.

import (
	"context"
	"fmt"
	"testing"

	"uncertts/internal/core"
	"uncertts/internal/engine"
	"uncertts/internal/experiments"
	"uncertts/internal/query"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// matrixWorkload builds one workload per (family, sigma) cell.
func matrixWorkload(t *testing.T, family uncertain.ErrorFamily, sigma float64) *core.Workload {
	t.Helper()
	ds, err := ucr.Generate("syntheticControl", ucr.Options{MaxSeries: 18, Length: 36, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	p, err := uncertain.NewConstantPerturber(family, sigma, 36, 101)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorkload(ds, p, core.WorkloadConfig{K: 4, SamplesPerTS: 4})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAllMatchersAllFamilies runs every technique on every error family and
// checks basic sanity: no errors, F1 in range, and (at tiny sigma) strong
// agreement with the ground truth for the distance techniques.
func TestAllMatchersAllFamilies(t *testing.T) {
	techniques := map[string]Technique{
		"euclidean": {Measure: MeasureEuclidean},
		"dtw":       {Measure: MeasureDTW},
		"dust":      {Measure: MeasureDUST},
		"uma":       {Measure: MeasureUMA},
		"uema":      {Measure: MeasureUEMA},
		"proud":     {Measure: MeasurePROUD, Tau: 0.05},
		"munich":    {Measure: MeasureMUNICH, Tau: 0.5},
	}
	for _, family := range uncertain.AllErrorFamilies() {
		for _, sigma := range []float64{0.2, 1.0} {
			w := matrixWorkload(t, family, sigma)
			for name, tech := range techniques {
				t.Run(fmt.Sprintf("%s/%s/sigma=%.1f", name, family, sigma), func(t *testing.T) {
					ms, err := Evaluate(w, tech, []int{0, 1, 2})
					if err != nil {
						t.Fatal(err)
					}
					avg := query.AverageMetrics(ms)
					if avg.F1 < 0 || avg.F1 > 1 {
						t.Fatalf("F1 out of range: %v", avg.F1)
					}
				})
			}
		}
	}
}

// TestLowNoiseConvergence: as sigma approaches zero, Euclidean and the
// lightest smoothing on offer (UEMA's decaying window, which barely distorts
// the exact data) converge to the exact ground truth.
func TestLowNoiseConvergence(t *testing.T) {
	w := matrixWorkload(t, uncertain.Normal, 1e-6)
	for _, measure := range []QueryMeasure{MeasureEuclidean, MeasureUEMA} {
		ms, err := Evaluate(w, Technique{Measure: measure}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f1 := query.AverageMetrics(ms).F1; f1 < 0.99 {
			t.Errorf("%s at sigma=1e-6: F1 = %v, want ~1", measure, f1)
		}
	}
}

// TestDUSTRankingMatchesEuclideanForNormalErrors verifies the paper's
// Section 2.3 equivalence end to end: with constant normal errors DUST is a
// monotone transform of Euclidean, so the two techniques must produce
// identical candidate *rankings* on a real workload. The equivalence is
// exact only with the uniform-error tail workaround disabled: the tail
// mixture makes dust^2 deliberately non-quadratic in the gap, which can
// reorder sums across timestamps.
func TestDUSTRankingMatchesEuclideanForNormalErrors(t *testing.T) {
	w := matrixWorkload(t, uncertain.Normal, 0.5)
	// The DUST evaluator is corpus geometry: the workload's series under a
	// corpus whose phi is the pure normal one (dust = gap / (2 sigma)).
	c := NewCorpus(CorpusConfig{DUST: DUSTOptions{TailWeight: -1}})
	for _, ps := range w.PDF {
		if _, err := c.Insert(CorpusSeries{Values: ps.Observations, Errors: ps.Errors}); err != nil {
			t.Fatal(err)
		}
	}
	top5 := func(measure QueryMeasure, qi int) []Neighbor {
		e, err := NewQueryEngineFromSnapshot(c.Snapshot(), QueryEngineOptions{Measure: measure})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), QueryRequest{Measure: measure, Kind: QueryTopK, Index: &qi, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Neighbors
	}
	for qi := 0; qi < 3; qi++ {
		euTop, duTop := top5(MeasureEuclidean, qi), top5(MeasureDUST, qi)
		for i := range euTop {
			if euTop[i].ID != duTop[i].ID {
				t.Fatalf("query %d: rank %d differs: euclidean %d vs dust %d",
					qi, i, euTop[i].ID, duTop[i].ID)
			}
		}
	}
}

// TestWorkloadSeedIsolation: the same dataset perturbed with different
// seeds must give different observations but identical ground truth (the
// truth lives in the exact space).
func TestWorkloadSeedIsolation(t *testing.T) {
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: 12, Length: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed int64) *core.Workload {
		p, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.5, 24, seed)
		if err != nil {
			t.Fatal(err)
		}
		w, err := core.NewWorkload(ds, p, core.WorkloadConfig{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := build(1), build(2)
	sameObs := true
	for i := range a.PDF {
		for j := range a.PDF[i].Observations {
			if a.PDF[i].Observations[j] != b.PDF[i].Observations[j] {
				sameObs = false
			}
		}
	}
	if sameObs {
		t.Error("different perturbation seeds gave identical observations")
	}
	for qi := 0; qi < a.Len(); qi++ {
		ta, tb := a.Truth(qi), b.Truth(qi)
		if len(ta) != len(tb) {
			t.Fatalf("query %d: truth sizes differ: %d vs %d", qi, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("query %d: ground truth depends on the perturbation seed", qi)
			}
		}
	}
}

// TestPublicVsInternalAgreement: the public facade and the internal
// packages must produce identical results for the same workload.
func TestPublicVsInternalAgreement(t *testing.T) {
	ds, err := GenerateDataset("Trace", DatasetOptions{MaxSeries: 12, Length: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := NewConstantPerturber(Normal, 0.5, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(ds, pert, WorkloadConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	viaPublic, err := Evaluate(w, Technique{Measure: MeasureUEMA}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	viaInternal, err := experiments.Evaluate(w, experiments.Technique{Measure: engine.MeasureUEMA}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaPublic {
		if viaPublic[i] != viaInternal[i] {
			t.Fatal("public facade diverged from the internal implementation")
		}
	}
}
