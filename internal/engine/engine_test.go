package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"uncertts/internal/core"
	"uncertts/internal/qerr"
	"uncertts/internal/query"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

func testWorkload(t testing.TB, series, length int) *core.Workload {
	t.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: series, Length: length, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.5, length, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// naiveTopK is the reference full scan: query.TopK over the engine's own
// exact Distance.
func naiveTopK(t *testing.T, e *Engine, qi, k int) []query.Neighbor {
	t.Helper()
	nn, err := query.TopK(e.snap.Len(), qi, func(ci int) (float64, error) {
		return e.Distance(qi, ci)
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	return nn
}

func allMeasures() []Options {
	return []Options{
		{Measure: MeasureEuclidean},
		{Measure: MeasureUMA},
		{Measure: MeasureUEMA, Lambda: 0.8},
		{Measure: MeasureDTW, Band: 5},
		{Measure: MeasureDUST},
	}
}

func TestTopKMatchesNaiveScanEveryMeasure(t *testing.T) {
	w := testWorkload(t, 40, 64)
	for _, opts := range allMeasures() {
		opts.ShardSize = 7 // force many shards
		e := newEngine(t, w.Snapshot(), opts)
		for _, k := range []int{1, 3, 10, 100} {
			for _, qi := range []int{0, 13, 39} {
				want := naiveTopK(t, e, qi, k)
				got := mustRun(t, e, Request{Kind: KindTopK, Index: &qi, K: k}).Neighbors
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: TopK(q=%d, k=%d) = %v, want %v", opts.Measure, qi, k, got, want)
				}
			}
		}
	}
}

func TestRangeMatchesNaiveScan(t *testing.T) {
	w := testWorkload(t, 40, 64)
	for _, opts := range allMeasures() {
		opts.ShardSize = 6
		e := newEngine(t, w.Snapshot(), opts)
		qi := 4
		// Pick an eps that catches a non-trivial subset: the exact distance
		// to the 8th nearest neighbour.
		nn := naiveTopK(t, e, qi, 8)
		eps := nn[len(nn)-1].Distance
		want, err := query.RangeQueryFunc(w.Len(), qi, func(ci int) (float64, error) {
			return e.Distance(qi, ci)
		}, eps)
		if err != nil {
			t.Fatal(err)
		}
		got := mustRun(t, e, Request{Kind: KindRange, Index: &qi, Eps: eps}).IDs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Range(%d, %g) = %v, want %v", opts.Measure, qi, eps, got, want)
		}
	}
}

// everyTopK answers the top-k query of every resident series in turn.
func everyTopK(t *testing.T, e *Engine, k int) [][]query.Neighbor {
	t.Helper()
	out := make([][]query.Neighbor, e.Snapshot().Len())
	for qi := range out {
		out[qi] = mustRun(t, e, Request{Kind: KindTopK, Index: &qi, K: k}).Neighbors
	}
	return out
}

func TestPruningDoesMeasurablyLessWork(t *testing.T) {
	w := testWorkload(t, 60, 96)
	for _, opts := range []Options{
		{Measure: MeasureEuclidean},
		{Measure: MeasureDTW, Band: 5},
		{Measure: MeasureDUST},
	} {
		pruned := newEngine(t, w.Snapshot(), opts)
		naiveOpts := opts
		naiveOpts.NoPrune = true
		naive := newEngine(t, w.Snapshot(), naiveOpts)
		if !reflect.DeepEqual(everyTopK(t, pruned, 5), everyTopK(t, naive, 5)) {
			t.Errorf("%s: pruned answers differ from the naive scan", opts.Measure)
		}
		ps, ns := pruned.Stats(), naive.Stats()
		if ps.Candidates != ns.Candidates {
			t.Errorf("%s: candidate counts differ: %d vs %d", opts.Measure, ps.Candidates, ns.Candidates)
		}
		if ns.Completed != ns.Candidates {
			t.Errorf("%s: naive arm must complete every candidate (%+v)", opts.Measure, ns)
		}
		if got := ps.Completed + ps.AbandonedEarly + ps.PrunedByEnvelope; got != ps.Candidates {
			t.Errorf("%s: stats identity broken: %+v", opts.Measure, ps)
		}
		// The acceptance bar: measurably fewer full distance computations.
		if ps.Completed >= ns.Completed/2 {
			t.Errorf("%s: pruning completed %d of %d full computations, want < half",
				opts.Measure, ps.Completed, ns.Completed)
		}
	}
}

func TestConcurrentRunIsSafe(t *testing.T) {
	// Multiple goroutines share one engine (and, for DUST, one set of phi
	// tables); run with -race in CI.
	w := testWorkload(t, 30, 48)
	for _, opts := range []Options{{Measure: MeasureEuclidean, Workers: 4, ShardSize: 5}, {Measure: MeasureDUST, Workers: 2, ShardSize: 8}} {
		e := newEngine(t, w.Snapshot(), opts)
		qi := 1
		req := Request{Measure: opts.Measure, Kind: KindTopK, Index: &qi, K: 4}
		want := mustRun(t, e, req)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := e.Run(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent answer differs")
				}
			}()
		}
		wg.Wait()
	}
}

func TestEngineValidation(t *testing.T) {
	w := testWorkload(t, 20, 32)
	if _, err := NewFromSnapshot(nil, Options{}); err == nil {
		t.Error("nil snapshot should error")
	}
	if _, err := NewFromSnapshot(w.Snapshot(), Options{Measure: Measure(99)}); err == nil {
		t.Error("unknown measure should error")
	}
	e := newEngine(t, w.Snapshot(), Options{})
	far, qi := 99, 0
	for name, req := range map[string]Request{
		"out-of-range query": {Kind: KindTopK, Index: &far, K: 3},
		"k=0":                {Kind: KindTopK, Index: &qi},
		"negative eps":       {Kind: KindRange, Index: &qi, Eps: -1},
		"NaN eps":            {Kind: KindRange, Index: &qi, Eps: math.NaN()},
	} {
		if _, err := e.Run(context.Background(), req); !errors.Is(err, qerr.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	if _, err := e.Distance(0, 99); err == nil {
		t.Error("out-of-range candidate should error")
	}
}

func TestMeasureString(t *testing.T) {
	for m, want := range map[Measure]string{
		MeasureEuclidean: "Euclidean",
		MeasureUMA:       "UMA",
		MeasureUEMA:      "UEMA",
		MeasureDTW:       "DTW",
		MeasureDUST:      "DUST",
		Measure(42):      "Measure(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Measure(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestResetStats(t *testing.T) {
	w := testWorkload(t, 20, 32)
	e := newEngine(t, w.Snapshot(), Options{})
	qi := 0
	mustRun(t, e, Request{Kind: KindTopK, Index: &qi, K: 3})
	if e.Stats().Candidates == 0 {
		t.Fatal("expected work to be counted")
	}
	e.ResetStats()
	if s := e.Stats(); s != (Stats{}) {
		t.Fatalf("ResetStats left %+v", s)
	}
}
