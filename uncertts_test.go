package uncertts

import (
	"context"
	"errors"
	"math"
	"testing"

	"uncertts/internal/distance"
	"uncertts/internal/engine"
	"uncertts/internal/experiments"
	"uncertts/internal/proud"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// TestPublicAPIEndToEnd drives the whole public surface the way the README
// quick start does.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := GenerateDataset("CBF", DatasetOptions{MaxSeries: 24, Length: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 24 {
		t.Fatalf("dataset size %d", ds.Len())
	}
	pert, err := NewConstantPerturber(Normal, 0.6, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(ds, pert, WorkloadConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, measure := range []QueryMeasure{MeasureEuclidean, MeasureDUST, MeasureUMA, MeasureUEMA} {
		ms, err := Evaluate(w, Technique{Measure: measure}, []int{0, 1, 2, 3})
		if err != nil {
			t.Fatalf("%s: %v", measure, err)
		}
		avg := AverageMetrics(ms)
		if avg.F1 < 0 || avg.F1 > 1 {
			t.Errorf("%s: F1 = %v", measure, avg.F1)
		}
	}
	proud := Technique{Measure: MeasurePROUD}
	proud.Tau, _, err = CalibrateTau(w, proud, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(w, proud, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicFiltersAndDistances(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	sig := []float64{1, 1, 1, 1, 1}
	ma := timeseries.MovingAverage(vals, 1)
	uma, err := UMA(vals, sig, 1, WeightModeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ma {
		if math.Abs(ma[i]-uma[i]) > 1e-12 {
			t.Fatal("constant-sigma UMA must equal MA")
		}
	}
	if err := timeseries.UncertainExponentialMovingAverageInto(make([]float64, len(vals)), vals, sig, 2, 0.5, WeightModeNormalized); err != nil {
		t.Fatal(err)
	}
	ema := timeseries.ExponentialMovingAverage(vals, 2, 0.5)
	if len(ema) != len(vals) {
		t.Fatal("EMA length")
	}

	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil || d != 5 {
		t.Fatalf("Euclidean = %v, %v", d, err)
	}
	if _, err := distance.DTWBand([]float64{1, 2}, []float64{1, 2, 2}, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := distance.DTWBand([]float64{1, 2}, []float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDistributions(t *testing.T) {
	for _, d := range []Dist{NormalDist(0, 1), stats.NewUniformByStdDev(0.5), stats.NewExponentialByStdDev(0.5)} {
		if math.IsNaN(d.Mean()) || d.Variance() <= 0 {
			t.Errorf("%v: bad moments", d)
		}
	}
}

func TestPublicDUSTAndMUNICH(t *testing.T) {
	du := NewDUST(DUSTOptions{})
	errDist := NormalDist(0, 0.5)
	v, err := du.Value(0, 1, errDist, errDist)
	if err != nil || v <= 0 {
		t.Fatalf("DUST value = %v, %v", v, err)
	}
	x := SampleSeries{Samples: [][]float64{{0, 0.1}, {1, 1.1}}, ID: 0}
	y := SampleSeries{Samples: [][]float64{{0.2}, {1.2}}, ID: 1}
	p, err := MUNICHProbability(x, y, 1, MUNICHOptions{})
	if err != nil || p < 0 || p > 1 {
		t.Fatalf("MUNICH probability = %v, %v", p, err)
	}
	dd, err := proud.Distance([]float64{0, 0}, []float64{1, 1}, 0.3, 0.3)
	if err != nil || dd.Mean <= 0 {
		t.Fatalf("PROUD distance = %+v, %v", dd, err)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	names := experiments.Names()
	if len(names) != 18 {
		t.Fatalf("want 18 experiments, got %d", len(names))
	}
	registry := experiments.Registry()
	if _, ok := registry["nope"]; ok {
		t.Error("unknown experiment should not resolve")
	}
	tables, err := registry["chisquare"](experiments.Config{Scale: experiments.ScaleSmall, Seed: 1})
	if err != nil || len(tables) != 1 {
		t.Fatalf("chisquare: %v, %d tables", err, len(tables))
	}
}

func TestPublicExtensions(t *testing.T) {
	ds, err := GenerateDataset("CBF", DatasetOptions{MaxSeries: 14, Length: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// AR(1) perturbation.
	pert, err := uncertain.NewAR1Perturber(Normal, 0.5, 0.6, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(ds, pert, WorkloadConfig{K: 3, SamplesPerTS: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The matching task under correlated errors, for a distance technique
	// and a probabilistic one.
	for _, tech := range []Technique{{Measure: engine.MeasureDTW}, {Measure: engine.MeasureMUNICH, Tau: 0.5}} {
		ms, err := Evaluate(w, tech, []int{0, 1})
		if err != nil {
			t.Fatalf("%s: %v", tech.Measure, err)
		}
		if len(ms) != 2 {
			t.Fatalf("%s: %d rows", tech.Measure, len(ms))
		}
	}
}

func TestPublicSeriesHelpers(t *testing.T) {
	n := timeseries.New([]float64{5, 10, 15}).Normalize()
	if math.Abs(n.Mean()) > 1e-9 || math.Abs(n.StdDev()-1) > 1e-9 {
		t.Error("Normalize failed")
	}
	if len(ucr.Names()) != 17 {
		t.Error("want 17 dataset names")
	}
	all := ucr.GenerateAll(DatasetOptions{MaxSeries: 3, Length: 40, Seed: 1})
	if len(all) != 17 {
		t.Error("want 17 datasets")
	}
	spec := MixedSigmaSpec{Fraction: 0.2, SigmaHigh: 1, SigmaLow: 0.4, Families: []ErrorFamily{Normal}}
	if _, err := NewMixedPerturber(spec, 40, 1); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteInputIsRejected pins the two reproductions of PR 25's bug:
// a 40-series corpus holding one series with a NaN value answered a
// Euclidean top-5 from that series with 4 neighbours, all at distance NaN,
// and a DTW top-5 with five +Inf distances. Both the insert and an ad-hoc
// query carrying a non-finite value or sample are now typed bad requests.
// Only the Go API can pose them: JSON has no NaN or Inf, so /series and
// /query never see one.
func TestNonFiniteInputIsRejected(t *testing.T) {
	series := func(s int) CorpusSeries {
		v := make([]float64, 32)
		samples := make([][]float64, 32)
		for i := range v {
			v[i] = math.Sin(0.3*float64(i)+float64(s)) + 0.05*float64(s)
			samples[i] = []float64{v[i] - 0.1, v[i], v[i] + 0.1}
		}
		return CorpusSeries{Values: v, Samples: samples}
	}
	batch := make([]CorpusSeries, 40)
	for s := range batch {
		batch[s] = series(s)
	}
	c := NewCorpus(CorpusConfig{})
	for _, bad := range []struct {
		name string
		set  func(CorpusSeries)
	}{
		{"NaN value", func(s CorpusSeries) { s.Values[5] = math.NaN() }},
		{"+Inf value", func(s CorpusSeries) { s.Values[0] = math.Inf(1) }},
		{"-Inf sample", func(s CorpusSeries) { s.Samples[31][2] = math.Inf(-1) }},
	} {
		poisoned := append([]CorpusSeries(nil), batch...)
		poisoned[7] = series(7)
		bad.set(poisoned[7])
		if _, err := c.InsertBatch(poisoned); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("insert with a %s: err = %v, want ErrBadRequest", bad.name, err)
		}
		if c.Len() != 0 {
			t.Fatalf("a refused insert left %d series behind", c.Len())
		}
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	nan, inf := series(7).Values, series(7).Samples
	nan[5] = math.NaN()
	inf[3][1] = math.Inf(1)
	for _, tc := range []struct {
		measure QueryMeasure
		kind    engine.Kind
		q       engine.Query
	}{
		{MeasureEuclidean, QueryTopK, engine.Query{Values: nan}},
		{engine.MeasureDTW, QueryTopK, engine.Query{Values: nan}},
		{engine.MeasureMUNICH, engine.KindProbRange, engine.Query{Samples: inf}},
	} {
		e, err := NewQueryEngineFromSnapshot(c.Snapshot(), QueryEngineOptions{Measure: tc.measure})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), QueryRequest{Measure: tc.measure, Kind: tc.kind, AdHoc: &tc.q, K: 5, Eps: 1, Tau: 0.5})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%v query with a non-finite input: err = %v (answer %+v), want ErrBadRequest", tc.measure, err, res)
		}
	}
}

// TestPublicQueryEngine drives the pruned top-k engine through the public
// surface and checks it against the naive scan.
func TestPublicQueryEngine(t *testing.T) {
	ds, err := GenerateDataset("CBF", DatasetOptions{MaxSeries: 30, Length: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := NewConstantPerturber(Normal, 0.5, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(ds, pert, WorkloadConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, measure := range []QueryMeasure{MeasureEuclidean, MeasureUEMA, engine.MeasureDTW, MeasureDUST} {
		e, err := NewQueryEngineFromSnapshot(w.Snapshot(), QueryEngineOptions{Measure: measure})
		if err != nil {
			t.Fatal(err)
		}
		qi := 0
		res, err := e.Run(context.Background(), QueryRequest{Measure: measure, Kind: QueryTopK, Index: &qi, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		nn := res.Neighbors
		if len(nn) != 5 {
			t.Fatalf("%v: got %d neighbours, want 5", measure, len(nn))
		}
		for i := 1; i < len(nn); i++ {
			if nn[i].Distance < nn[i-1].Distance {
				t.Fatalf("%v: neighbours out of order: %v", measure, nn)
			}
		}
		// The engine's distances must agree with its own exact Distance.
		for _, n := range nn {
			d, err := e.Distance(0, n.ID)
			if err != nil {
				t.Fatal(err)
			}
			if d != n.Distance {
				t.Fatalf("%v: neighbour %d distance %v != exact %v", measure, n.ID, n.Distance, d)
			}
		}
		s := e.Stats()
		if s.Candidates == 0 || s.Completed+s.AbandonedEarly+s.PrunedByEnvelope != s.Candidates {
			t.Fatalf("%v: inconsistent stats %+v", measure, s)
		}
	}
}
