package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
	"uncertts/internal/query"
	"uncertts/internal/stats"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// probWorkload builds a workload with the repeated-observation model so
// both probabilistic measures can run. The MUNICH refine step is the most
// expensive path in the test suite, so the workload stays small and the
// convolution estimator runs at reduced resolution (testMunichOpts) on
// both the engine and the naive reference.
func probWorkload(t testing.TB, series, length int) *core.Workload {
	t.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: series, Length: length, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.2, length, 21)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 5, SamplesPerTS: 3})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testMunichOpts() munich.Options { return munich.Options{Bins: 512} }

// naiveMunichProb is the definitional MUNICH pair probability: the exact
// bounding-interval prune, then the estimator.
func naiveMunichProb(t *testing.T, w *core.Workload, qi, ci int, eps float64, opts munich.Options) float64 {
	t.Helper()
	dec, err := munich.BoundingIntervals(w.Samples[qi]).Prune(w.Samples[ci], eps)
	if err != nil {
		t.Fatal(err)
	}
	switch dec {
	case munich.PruneAccept:
		return 1
	case munich.PruneReject:
		return 0
	}
	p, err := munich.Probability(w.Samples[qi], w.Samples[ci], eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// naiveProbRange is the reference scan for ProbRange, independent of the
// engine: the definitional loop over every candidate — PROUD's
// proud.Matcher predicate under the workload's reported sigma, MUNICH's
// pair probability against tau — at the ground truth's Euclidean threshold.
func naiveProbRange(t *testing.T, w *core.Workload, measure Measure, qi int, tau float64, opts munich.Options) []int {
	t.Helper()
	eps := w.EpsEucl(qi)
	var out []int
	for ci := 0; ci < w.Len(); ci++ {
		if ci == qi {
			continue
		}
		var ok bool
		if measure == MeasurePROUD {
			m := proud.Matcher{Eps: eps, Tau: tau, QuerySigma: w.ReportedSigma, CandSigma: w.ReportedSigma}
			var err error
			if ok, err = m.Matches(w.PDF[qi].Observations, w.PDF[ci].Observations); err != nil {
				t.Fatal(err)
			}
		} else {
			ok = naiveMunichProb(t, w, qi, ci, eps, opts) >= tau
		}
		if ok {
			out = append(out, ci)
		}
	}
	return out
}

// naiveProbs is the reference scan for ProbTopK: every pair probability
// computed definitionally, sorted by descending probability with ties
// broken by index.
func naiveProbs(t *testing.T, w *core.Workload, measure Measure, qi int, eps float64) []ProbMatch {
	t.Helper()
	var out []ProbMatch
	for ci := 0; ci < w.Len(); ci++ {
		if ci == qi {
			continue
		}
		var p float64
		switch measure {
		case MeasurePROUD:
			d, err := proud.Distance(w.PDF[qi].Observations, w.PDF[ci].Observations, w.ReportedSigma, w.ReportedSigma)
			if err != nil {
				t.Fatal(err)
			}
			p = d.ProbWithin(eps)
		case MeasureMUNICH:
			p = naiveMunichProb(t, w, qi, ci, eps, testMunichOpts())
		}
		out = append(out, ProbMatch{ID: ci, Prob: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func probEngine(t *testing.T, w *core.Workload, measure Measure, workers int) *Engine {
	t.Helper()
	return newEngine(t, w.Snapshot(), Options{Measure: measure, Workers: workers, ShardSize: 7, MUNICH: testMunichOpts()})
}

func TestProbRangeMatchesNaiveMatcherEveryWorkerCount(t *testing.T) {
	w := probWorkload(t, 24, 32)
	queries := []int{0, 7, 23}
	for _, tc := range []struct {
		measure Measure
		taus    []float64
	}{
		{MeasurePROUD, []float64{0.05, 0.5, 0.9}},
		{MeasureMUNICH, []float64{0.3, 0.5, 1}},
	} {
		for _, tau := range tc.taus {
			for _, workers := range []int{1, 2, 8} {
				e := probEngine(t, w, tc.measure, workers)
				for _, qi := range queries {
					want := naiveProbRange(t, w, tc.measure, qi, tau, testMunichOpts())
					got := mustRun(t, e, Request{Kind: KindProbRange, Index: &qi, Eps: w.EpsEucl(qi), Tau: tau}).IDs
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: ProbRange(q=%d, tau=%g, workers=%d) = %v, want %v",
							tc.measure, qi, tau, workers, got, want)
					}
				}
			}
		}
	}
}

func TestProbTopKMatchesNaiveRankingEveryWorkerCount(t *testing.T) {
	w := probWorkload(t, 24, 32)
	for _, measure := range []Measure{MeasurePROUD, MeasureMUNICH} {
		for _, qi := range []int{0, 13} {
			eps := w.EpsEucl(qi)
			ref := naiveProbs(t, w, measure, qi, eps)
			for _, k := range []int{1, 5, 50} {
				want := ref
				if k < len(want) {
					want = want[:k]
				}
				for _, workers := range []int{1, 2, 8} {
					e := probEngine(t, w, measure, workers)
					got := mustRun(t, e, Request{Kind: KindProbTopK, Index: &qi, Eps: eps, K: k}).Matches
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: ProbTopK(q=%d, k=%d, workers=%d) = %v, want %v",
							measure, qi, k, workers, got, want)
					}
				}
			}
		}
	}
}

// TestProbRangeMatchesNaiveAcrossEstimators pins bit-identity for the
// estimator configurations whose refine step is approximate (Monte Carlo,
// forced convolution) and for the exact-feasible regime where the
// sample-pair upper bound is live.
func TestProbRangeMatchesNaiveAcrossEstimators(t *testing.T) {
	cases := []struct {
		name    string
		series  int
		length  int
		samples int
		opts    munich.Options
	}{
		{"montecarlo", 18, 24, 3, munich.Options{Estimator: munich.EstimatorMonteCarlo, MonteCarloSamples: 300}},
		{"convolution", 18, 24, 3, munich.Options{Estimator: munich.EstimatorConvolution, Bins: 256}},
		// 2 samples x 12 timestamps: 4^6 combinations per half, exactly
		// countable, so Auto refines exactly and the sample-pair bound runs.
		{"exact-auto", 18, 12, 2, munich.Options{}},
		{"exact-forced", 18, 12, 2, munich.Options{Estimator: munich.EstimatorExact}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: tc.series, Length: tc.length, Seed: 33})
			if err != nil {
				t.Fatal(err)
			}
			pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.25, tc.length, 33)
			if err != nil {
				t.Fatal(err)
			}
			w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 4, SamplesPerTS: tc.samples})
			if err != nil {
				t.Fatal(err)
			}
			for _, tau := range []float64{0.1, 0.5, 0.9} {
				for _, workers := range []int{1, 8} {
					e := newEngine(t, w.Snapshot(), Options{Measure: MeasureMUNICH, Workers: workers, ShardSize: 5, MUNICH: tc.opts})
					for _, qi := range []int{0, 9, 17} {
						want := naiveProbRange(t, w, MeasureMUNICH, qi, tau, tc.opts)
						got := mustRun(t, e, Request{Kind: KindProbRange, Index: &qi, Eps: w.EpsEucl(qi), Tau: tau}).IDs
						if !reflect.DeepEqual(got, want) {
							t.Errorf("tau=%g workers=%d q=%d: engine %v, naive %v", tau, workers, qi, got, want)
						}
					}
				}
			}
		})
	}
}

// TestProbPruningResolvesMostCandidates is the acceptance bar of the
// probabilistic engine: identical answers to the unpruned arm, with more
// than half of the candidates resolved without the full refine step.
func TestProbPruningResolvesMostCandidates(t *testing.T) {
	w := probWorkload(t, 30, 48)
	eps := w.EpsEucl(0)
	for _, tc := range []struct {
		measure Measure
		tau     float64
	}{
		{MeasurePROUD, 0.05},
		{MeasureMUNICH, 0.5},
	} {
		pruned := probEngine(t, w, tc.measure, 0)
		naive := newEngine(t, w.Snapshot(), Options{Measure: tc.measure, ShardSize: 7, MUNICH: testMunichOpts(), NoPrune: true})
		for qi := 0; qi < w.Len(); qi++ {
			req := Request{Kind: KindProbRange, Index: &qi, Eps: eps, Tau: tc.tau}
			if got, want := mustRun(t, pruned, req).IDs, mustRun(t, naive, req).IDs; !reflect.DeepEqual(got, want) {
				t.Errorf("%s q=%d: pruned answer %v differs from the unpruned arm's %v", tc.measure, qi, got, want)
			}
		}
		ps, ns := pruned.Stats(), naive.Stats()
		if ps.Candidates != ns.Candidates {
			t.Errorf("%s: candidate counts differ: %d vs %d", tc.measure, ps.Candidates, ns.Candidates)
		}
		if got := ps.Completed + ps.AbandonedEarly + ps.PrunedByEnvelope + ps.ResolvedByBounds + ps.ResolvedEarly; got != ps.Candidates {
			t.Errorf("%s: stats identity broken: %+v", tc.measure, ps)
		}
		if resolved := ps.Candidates - ps.Completed; 2*resolved <= ps.Candidates {
			t.Errorf("%s: only %d of %d candidates resolved without the full refine, want > half",
				tc.measure, resolved, ps.Candidates)
		}
	}
}

func TestProbValidation(t *testing.T) {
	w := probWorkload(t, 12, 16)
	// MUNICH needs the sample model: a workload built without SamplesPerTS
	// has no sample view in its corpus snapshot.
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: 12, Length: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.2, 16, 21)
	if err != nil {
		t.Fatal(err)
	}
	noSamples, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromSnapshot(noSamples.Snapshot(), Options{Measure: MeasureMUNICH}); err == nil {
		t.Error("MeasureMUNICH without samples should error")
	}
	de := newEngine(t, w.Snapshot(), Options{Measure: MeasureEuclidean})
	pe := newEngine(t, w.Snapshot(), Options{Measure: MeasurePROUD})
	me := newEngine(t, w.Snapshot(), Options{Measure: MeasureMUNICH})
	if _, err := pe.Distance(0, 1); err == nil {
		t.Error("Distance on a probabilistic measure should error")
	}
	far, qi := 99, 0
	for _, tc := range []struct {
		name string
		e    *Engine
		req  Request
	}{
		// Probabilistic queries are rejected on distance measures and vice versa.
		{"probrange on a distance measure", de, Request{Kind: KindProbRange, Index: &qi, Eps: 1, Tau: 0.5}},
		{"probtopk on a distance measure", de, Request{Kind: KindProbTopK, Index: &qi, Eps: 1, K: 3}},
		{"topk on a probabilistic measure", pe, Request{Kind: KindTopK, Index: &qi, K: 3}},
		{"out-of-range query", pe, Request{Kind: KindProbRange, Index: &far, Eps: 1, Tau: 0.5}},
		{"negative eps", pe, Request{Kind: KindProbRange, Index: &qi, Eps: -1, Tau: 0.5}},
		{"NaN eps", pe, Request{Kind: KindProbRange, Index: &qi, Eps: math.NaN(), Tau: 0.5}},
		{"PROUD tau=0", pe, Request{Kind: KindProbRange, Index: &qi, Eps: 1, Tau: 0}},
		{"PROUD tau=1", pe, Request{Kind: KindProbRange, Index: &qi, Eps: 1, Tau: 1}},
		{"k=0", pe, Request{Kind: KindProbTopK, Index: &qi, Eps: 1}},
		{"MUNICH tau=0", me, Request{Kind: KindProbRange, Index: &qi, Eps: 1, Tau: 0}},
		{"MUNICH tau>1", me, Request{Kind: KindProbRange, Index: &qi, Eps: 1, Tau: 1.5}},
	} {
		tc.req.Measure = tc.e.Measure()
		if _, err := tc.e.Run(context.Background(), tc.req); !errors.Is(err, qerr.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	mustRun(t, me, Request{Kind: KindProbRange, Index: &qi, Eps: 1, Tau: 1}) // MUNICH tau=1 is valid
}

// duplicateWorkload hand-builds a workload where series 0-3 are exact
// duplicates: the adversarial input for zero-distance tie handling.
func duplicateWorkload(t *testing.T) *corpus.Snapshot {
	t.Helper()
	const n = 16
	base := make([]float64, n)
	rng := stats.NewRand(5)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	c := corpus.New(corpus.Config{ReportedSigma: 0.1, Band: 3})
	for id := 0; id < 10; id++ {
		vals := make([]float64, n)
		copy(vals, base)
		if id >= 4 {
			// Distinct tail series, still close enough to be candidates.
			for i := range vals {
				vals[i] += float64(id) * 0.3 * float64(i%3)
			}
		}
		if _, err := c.Insert(corpus.Series{Values: vals}); err != nil {
			t.Fatal(err)
		}
	}
	return c.Snapshot()
}

// TestZeroDistanceTies is the ulpUp regression test: with exact-duplicate
// series the k-th best distance — and therefore the pruning cutoff — is
// exactly zero, and the absolute floor must keep the remaining duplicates
// from being excluded by their own tie.
func TestZeroDistanceTies(t *testing.T) {
	snap := duplicateWorkload(t)
	for _, opts := range []Options{
		{Measure: MeasureEuclidean, ShardSize: 3},
		{Measure: MeasureDTW, ShardSize: 3},
	} {
		e := newEngine(t, snap, opts)
		qi := 0
		for _, k := range []int{2, 3, 5} {
			want := naiveTopK(t, e, 0, k)
			got := mustRun(t, e, Request{Kind: KindTopK, Index: &qi, K: k}).Neighbors
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: TopK(0, %d) over duplicates = %v, want %v", opts.Measure, k, got, want)
			}
		}
		// Range with eps = 0 must return exactly the duplicates.
		got := mustRun(t, e, Request{Kind: KindRange, Index: &qi, Eps: 0}).IDs
		want, err := query.RangeQueryFunc(snap.Len(), 0, func(ci int) (float64, error) {
			return e.Distance(0, ci)
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Range(0, 0) = %v, want %v", opts.Measure, got, want)
		}
		if len(got) != 3 {
			t.Errorf("%s: Range(0, 0) = %v, want the 3 duplicates", opts.Measure, got)
		}
	}
}

func TestUlpUpFloor(t *testing.T) {
	if ulpUp(0) <= 0 {
		t.Error("ulpUp(0) must be strictly positive")
	}
	if v := 2.5; ulpUp(v) <= v {
		t.Error("ulpUp must strictly inflate positive values")
	}
}
