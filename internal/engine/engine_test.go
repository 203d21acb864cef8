package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/qerr"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// testWorkload perturbs a CBF dataset into a workload whose corpus runs DTW
// under the given band (0 = length/10, negative = unconstrained).
func testWorkload(t testing.TB, series, length, band int) *core.Workload {
	t.Helper()
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: series, Length: length, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.5, length, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 5, Band: band})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// naiveTopK is the reference full scan: topK over the engine's own
// exact Distance.
func naiveTopK(t *testing.T, e *Engine, qi, k int) []Neighbor {
	t.Helper()
	nn, err := topK(e.snap.Len(), qi, func(ci int) (float64, error) {
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
		{Measure: MeasureUEMA},
		{Measure: MeasureDTW},
		{Measure: MeasureDUST},
	}
}

func TestTopKMatchesNaiveScanEveryMeasure(t *testing.T) {
	w := testWorkload(t, 40, 64, 5)
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
	w := testWorkload(t, 40, 64, 5)
	for _, opts := range allMeasures() {
		opts.ShardSize = 6
		e := newEngine(t, w.Snapshot(), opts)
		qi := 4
		// Pick an eps that catches a non-trivial subset: the exact distance
		// to the 8th nearest neighbour.
		nn := naiveTopK(t, e, qi, 8)
		eps := nn[len(nn)-1].Distance
		want, err := rangeQueryFunc(w.Len(), qi, func(ci int) (float64, error) {
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
func everyTopK(t *testing.T, e *Engine, k int) [][]Neighbor {
	t.Helper()
	out := make([][]Neighbor, e.Snapshot().Len())
	for qi := range out {
		out[qi] = mustRun(t, e, Request{Kind: KindTopK, Index: &qi, K: k}).Neighbors
	}
	return out
}

func TestPruningDoesMeasurablyLessWork(t *testing.T) {
	w := testWorkload(t, 60, 96, 5)
	for _, opts := range []Options{
		{Measure: MeasureEuclidean},
		{Measure: MeasureDTW},
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
	w := testWorkload(t, 30, 48, 0)
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
	w := testWorkload(t, 20, 32, 0)
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
	w := testWorkload(t, 20, 32, 0)
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

// TestConstructionCostIsConstantInCorpusSize is the construction gate. Over
// a snapshot with a dead interior row — the steady state of any corpus that
// deletes, until a quarter of its rows are dead and it compacts — building
// an engine must cost the same few allocations and the same few hundred
// bytes at 256 and at 4096 series, for every measure with its prefilter
// engaged: the engine binds arena columns and the snapshot's row index, and
// gathers, derives or walks nothing. What it does allocate is the engine and
// the prefilter's per-layout state (tier 0's segments, or DTW's sketch
// layout and its span widths), whose size depends on the series length only.
func TestConstructionCostIsConstantInCorpusSize(t *testing.T) {
	afterDelete := func(n int) *corpus.Snapshot {
		c := testCorpus(t, n+1, 16)
		if err := c.Delete(n / 2); err != nil {
			t.Fatal(err)
		}
		snap := c.Snapshot()
		if _, dense := snap.Columns(); dense || snap.Len() != n {
			t.Fatalf("after-delete snapshot: %d series, dense = %v", snap.Len(), dense)
		}
		return snap
	}
	small, large := afterDelete(256), afterDelete(4096)
	cost := func(snap *corpus.Snapshot, opts Options) (allocs float64, bytes uint64) {
		build := func() {
			if _, err := NewFromSnapshot(snap, opts); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(10, build)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, opts := range allMeasureOptions() {
		opts.indexThreshold = -1
		sa, sb := cost(small, opts)
		la, lb := cost(large, opts)
		if sa != la || sb != lb {
			t.Errorf("%v: %v allocs / %d B at 256 series, %v allocs / %d B at 4096: construction depends on the corpus size", opts.Measure, sa, sb, la, lb)
		}
		if la > 8 || lb > 2048 {
			t.Errorf("%v: %v allocs / %d B per engine build, want a handful", opts.Measure, la, lb)
		}
		t.Logf("%v: %v allocs, %d B per build", opts.Measure, la, lb)
	}
}
