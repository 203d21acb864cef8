package uncertts

// The benchmark harness regenerates every figure of the paper's evaluation
// (go test -bench=Fig -benchmem) and adds ablation benches for a few design
// choices. Benchmarks run the experiment at small scale per iteration;
// cmd/uncertbench regenerates the tables at medium/full scale.

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"

	"uncertts/internal/core"
	"uncertts/internal/distance"
	"uncertts/internal/dust"
	"uncertts/internal/engine"
	"uncertts/internal/experiments"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/query"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// benchExperiment runs a figure runner once per iteration at small scale.
// Figure benchmarks are heavy (BenchmarkFig4 alone takes several seconds
// per iteration), so -short skips them to keep quick CI loops fast.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	if testing.Short() {
		b.Skipf("figure benchmark %s skipped in -short mode", name)
	}
	runner, ok := experiments.Registry()[name]
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	cfg := experiments.Config{Scale: experiments.ScaleSmall, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- One benchmark per evaluation artefact (Section 4 and 5 figures) ----

func BenchmarkChiSquare(b *testing.B) { benchExperiment(b, "chisquare") }
func BenchmarkFig4(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)     { benchExperiment(b, "fig17") }

// ---- Micro-benchmarks of the technique primitives ----

func benchSeriesPair(length int) (uncertain.PDFSeries, uncertain.PDFSeries) {
	rng := stats.NewRand(7)
	errDist := stats.NewNormal(0, 0.5)
	mk := func(id int) uncertain.PDFSeries {
		obs := make([]float64, length)
		errs := make([]stats.Dist, length)
		for i := range obs {
			obs[i] = rng.NormFloat64()
			errs[i] = errDist
		}
		return uncertain.PDFSeries{Observations: obs, Errors: errs, ID: id}
	}
	return mk(0), mk(1)
}

func BenchmarkEuclideanDistance(b *testing.B) {
	q, c := benchSeriesPair(290)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Euclidean(q.Observations, c.Observations); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWDistance(b *testing.B) {
	q, c := benchSeriesPair(290)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DTW(q.Observations, c.Observations); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDUSTDistanceTable(b *testing.B) {
	q, c := benchSeriesPair(290)
	d := dust.New(dust.Options{})
	if _, err := d.Distance(q, c); err != nil { // build tables outside timing
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Distance(q, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPROUDDistance(b *testing.B) {
	q, c := benchSeriesPair(290)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proud.Distance(q.Observations, c.Observations, 0.5, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSampleSeries draws a sample-model series of the given shape, one
// value(i) call per observation of timestamp i.
func benchSampleSeries(id, length, per int, value func(i int) float64) uncertain.SampleSeries {
	samples := make([][]float64, length)
	for i := range samples {
		row := make([]float64, per)
		for j := range row {
			row[j] = value(i)
		}
		samples[i] = row
	}
	return uncertain.SampleSeries{Samples: samples, ID: id}
}

func BenchmarkMUNICHProbabilityExact(b *testing.B) {
	rng := stats.NewRand(3)
	value := func(int) float64 { return rng.NormFloat64() }
	x, y := benchSampleSeries(0, 6, 5, value), benchSampleSeries(1, 6, 5, value)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := munich.Probability(x, y, 2, munich.Options{Estimator: munich.EstimatorExact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMUNICHProbabilityConvolution is the refine uncertserve actually
// runs: 128 timestamps x 3 samples is far beyond the exact estimator's cap,
// so Auto convolves over the default 4096 bins. eps sits where the estimate
// is ~0.056 (0.47 of the way up the bounding-interval bracket): the -Inf arm
// completes, the tau = 0.1 arm abandons part-way.
func BenchmarkMUNICHProbabilityConvolution(b *testing.B) {
	rng := stats.NewRand(3)
	value := func(i int) float64 { return math.Sin(0.2*float64(i)) + 0.25*rng.NormFloat64() }
	x, y := benchSampleSeries(0, 128, 3, value), benchSampleSeries(1, 128, 3, value)
	lo, hi, err := munich.BoundingIntervals(x).Bounds(y)
	if err != nil {
		b.Fatal(err)
	}
	eps := lo + 0.47*(hi-lo)
	for _, cutoff := range []float64{math.Inf(-1), 0.1} {
		b.Run(fmt.Sprintf("cutoff=%g", cutoff), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := munich.ProbabilityCutoff(x, y, eps, cutoff, munich.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDTWBandServedShape is the DTW refine uncertserve runs: 128 points
// under band 12 (the corpus default, length/10) with a warm scratch, on
// smooth series like the served corpus' rather than white noise. The +Inf
// arm completes; the other cuts at half the path cost and abandons part-way,
// as most candidates of a top-k scan do.
func BenchmarkDTWBandServedShape(b *testing.B) {
	rng := stats.NewRand(5)
	smooth := func(phase float64) []float64 {
		s := make([]float64, 128)
		for i := range s {
			s[i] = math.Sin(0.1*float64(i)+phase) + 0.1*rng.NormFloat64()
		}
		return s
	}
	x, y := smooth(0), smooth(0.5)
	var scratch distance.DTWScratch
	full, _, err := distance.DTWBandEarlyAbandonScratch(x, y, 12, math.Inf(1), nil, &scratch)
	if err != nil {
		b.Fatal(err)
	}
	for _, cutoff := range []float64{math.Inf(1), full * full / 2} {
		b.Run(fmt.Sprintf("cutoff=%.3g", cutoff), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := distance.DTWBandEarlyAbandonScratch(x, y, 12, cutoff, nil, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUEMAFilter(b *testing.B) {
	q, _ := benchSeriesPair(290)
	sig := q.Sigmas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UEMA(q.Observations, sig, 2, 1, WeightModeNormalized); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches ----

func ablationWorkload(b *testing.B) *core.Workload {
	b.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: 20, Length: 64, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	pert, err := uncertain.NewMixedPerturber(uncertain.MixedSigmaSpec{
		Fraction: 0.2, SigmaHigh: 1.0, SigmaLow: 0.4,
		Families: []uncertain.ErrorFamily{uncertain.Normal},
	}, 64, 9)
	if err != nil {
		b.Fatal(err)
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func reportF1(b *testing.B, w *core.Workload, t experiments.Technique, label string) {
	b.Helper()
	ms, err := experiments.Evaluate(w, t, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(query.AverageMetrics(ms).F1, label+"-F1")
}

// BenchmarkAblationUMAWeights compares the two readings of Eq. 17: strict
// (divide by 2w+1, per the paper's formula) versus normalized weights.
func BenchmarkAblationUMAWeights(b *testing.B) {
	w := ablationWorkload(b)
	for i := 0; i < b.N; i++ {
		reportF1(b, w, experiments.Technique{Measure: engine.MeasureUMA, Mode: timeseries.WeightModeNormalized}, "normalized")
		reportF1(b, w, experiments.Technique{Measure: engine.MeasureUMA, Mode: timeseries.WeightModeStrict}, "strict")
	}
}

// BenchmarkAblationDUSTTable compares DUST with lookup tables against direct
// integration for every phi evaluation.
func BenchmarkAblationDUSTTable(b *testing.B) {
	q, c := benchSeriesPair(64)
	b.Run("table", func(b *testing.B) {
		d := dust.New(dust.Options{})
		if _, err := d.Distance(q, c); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Distance(q, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		d := dust.New(dust.Options{Exact: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Distance(q, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMunichEstimator compares the exact meet-in-the-middle
// count, the histogram convolution, and Monte Carlo sampling on the same
// probability query.
func BenchmarkAblationMunichEstimator(b *testing.B) {
	rng := stats.NewRand(4)
	mk := func(id int) uncertain.SampleSeries {
		samples := make([][]float64, 8)
		for i := range samples {
			row := make([]float64, 4)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			samples[i] = row
		}
		return uncertain.SampleSeries{Samples: samples, ID: id}
	}
	x, y := mk(0), mk(1)
	for _, est := range []struct {
		name string
		opts munich.Options
	}{
		{"exact", munich.Options{Estimator: munich.EstimatorExact}},
		{"convolution", munich.Options{Estimator: munich.EstimatorConvolution}},
		{"montecarlo", munich.Options{Estimator: munich.EstimatorMonteCarlo, MonteCarloSamples: 5000}},
	} {
		b.Run(est.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := munich.Probability(x, y, 3, est.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Query engine benches: pruned top-k versus the naive full scan ----

// topkWorkload is shared across the engine benchmarks: a CBF workload big
// enough that pruning matters.
func topkWorkload(b *testing.B) *core.Workload {
	b.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: 120, Length: 128, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.5, 128, 11)
	if err != nil {
		b.Fatal(err)
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 10})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// runEvery answers req once per resident series — the query position is
// filled in per call — through Engine.Run, the one way the benchmarks reach
// the engine.
func runEvery(b *testing.B, e *engine.Engine, req engine.Request) {
	b.Helper()
	req.Measure = e.Measure()
	for qi := 0; qi < e.Snapshot().Len(); qi++ {
		req.Index = &qi
		if _, err := e.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineTopK answers a top-10 query for every series per iteration
// and reports the share of the scan that ran a full distance computation
// (full-dist/op: 1.0 means no pruning).
func benchEngineTopK(b *testing.B, opts engine.Options) {
	b.Helper()
	e, err := engine.NewFromSnapshot(topkWorkload(b).Snapshot(), opts)
	if err != nil {
		b.Fatal(err)
	}
	req := engine.Request{Kind: engine.KindTopK, K: 10}
	runEvery(b, e, req) // warm caches/tables outside timing
	e.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEvery(b, e, req)
	}
	b.StopTimer()
	stats := e.Stats()
	b.ReportMetric(float64(stats.Completed)/float64(stats.Candidates), "full-dist/op")
}

func BenchmarkTopKEuclideanNaive(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureEuclidean, NoPrune: true})
}

func BenchmarkTopKEuclideanPruned(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureEuclidean})
}

func BenchmarkTopKUEMANaive(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureUEMA, NoPrune: true})
}

func BenchmarkTopKUEMAPruned(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureUEMA})
}

func BenchmarkTopKDTWNaive(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureDTW, NoPrune: true})
}

func BenchmarkTopKDTWPruned(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureDTW})
}

func BenchmarkTopKDUSTNaive(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureDUST, NoPrune: true})
}

func BenchmarkTopKDUSTPruned(b *testing.B) {
	benchEngineTopK(b, engine.Options{Measure: engine.MeasureDUST})
}

// BenchmarkTopKSingleThread isolates the pruning win from parallelism:
// one worker, pruned versus naive, on the hottest measure.
func BenchmarkTopKSingleThread(b *testing.B) {
	b.Run("euclidean-naive", func(b *testing.B) {
		benchEngineTopK(b, engine.Options{Measure: engine.MeasureEuclidean, NoPrune: true, Workers: 1})
	})
	b.Run("euclidean-pruned", func(b *testing.B) {
		benchEngineTopK(b, engine.Options{Measure: engine.MeasureEuclidean, Workers: 1})
	})
	b.Run("dtw-naive", func(b *testing.B) {
		benchEngineTopK(b, engine.Options{Measure: engine.MeasureDTW, NoPrune: true, Workers: 1})
	})
	b.Run("dtw-pruned", func(b *testing.B) {
		benchEngineTopK(b, engine.Options{Measure: engine.MeasureDTW, Workers: 1})
	})
}

// ---- Probabilistic engine benches: ProbRange pruned versus naive ----

// probBenchWorkload carries the repeated-observation model so both
// probabilistic measures can run. MUNICH's refine step (histogram
// convolution) dominates, so the workload is kept moderate and the
// estimator resolution reduced — identically in both arms.
func probBenchWorkload(b *testing.B, series, length int) *core.Workload {
	b.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: series, Length: length, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.2, length, 23)
	if err != nil {
		b.Fatal(err)
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 5, SamplesPerTS: 3})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchProbRange answers the probabilistic range query for every series
// per iteration and reports the share of candidates that needed the full
// refine step (full-refine/op: 1.0 means no pruning).
func benchProbRange(b *testing.B, w *core.Workload, opts engine.Options, tau float64) {
	b.Helper()
	e, err := engine.NewFromSnapshot(w.Snapshot(), opts)
	if err != nil {
		b.Fatal(err)
	}
	req := engine.Request{Kind: engine.KindProbRange, Eps: w.EpsEucl(0), Tau: tau}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEvery(b, e, req)
	}
	b.StopTimer()
	stats := e.Stats()
	b.ReportMetric(float64(stats.Completed)/float64(stats.Candidates), "full-refine/op")
}

func BenchmarkProbRangePROUDNaive(b *testing.B) {
	w := probBenchWorkload(b, 120, 128)
	benchProbRange(b, w, engine.Options{Measure: engine.MeasurePROUD, NoPrune: true}, 0.05)
}

func BenchmarkProbRangePROUDPruned(b *testing.B) {
	w := probBenchWorkload(b, 120, 128)
	benchProbRange(b, w, engine.Options{Measure: engine.MeasurePROUD}, 0.05)
}

func BenchmarkProbRangeMUNICHNaive(b *testing.B) {
	w := probBenchWorkload(b, 30, 32)
	benchProbRange(b, w, engine.Options{Measure: engine.MeasureMUNICH, MUNICH: munich.Options{Bins: 512}, NoPrune: true}, 0.5)
}

func BenchmarkProbRangeMUNICHPruned(b *testing.B) {
	w := probBenchWorkload(b, 30, 32)
	benchProbRange(b, w, engine.Options{Measure: engine.MeasureMUNICH, MUNICH: munich.Options{Bins: 512}}, 0.5)
}

// BenchmarkProbTopK ranks every candidate by match probability through the
// shared-bound pruned path.
func BenchmarkProbTopK(b *testing.B) {
	for _, arm := range []struct {
		name           string
		series, length int
		opts           engine.Options
	}{
		{"proud", 120, 128, engine.Options{Measure: engine.MeasurePROUD}},
		{"munich", 30, 32, engine.Options{Measure: engine.MeasureMUNICH, MUNICH: munich.Options{Bins: 512}}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			w := probBenchWorkload(b, arm.series, arm.length)
			e, err := engine.NewFromSnapshot(w.Snapshot(), arm.opts)
			if err != nil {
				b.Fatal(err)
			}
			req := engine.Request{Kind: engine.KindProbTopK, Eps: w.EpsEucl(0), K: 10}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runEvery(b, e, req)
			}
		})
	}
}
