package engine

import (
	"fmt"
	"reflect"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
)

// indexCorpusConfig is the geometry the index tests pin: a tiny leaf
// capacity so even a few dozen series split into many buckets, and a
// segment count the MUNICH engines below match.
func indexCorpusConfig() corpus.Config {
	return corpus.Config{ReportedSigma: 0.3, Segments: 4, SketchLeafCap: 4}
}

// indexMeasureOptions mirrors allMeasureOptions with every measure
// configured to match the corpus geometry, so a prefilter engages wherever
// one exists: tier 0 for the lock-step measures and PROUD, the bucket tree
// for DTW (DUST and MUNICH have neither).
func indexMeasureOptions() []Options {
	return []Options{
		{Measure: MeasureEuclidean, ShardSize: 5},
		{Measure: MeasureUMA, ShardSize: 5},
		{Measure: MeasureUEMA, ShardSize: 5},
		{Measure: MeasureDTW, Band: 3, ShardSize: 5},
		{Measure: MeasureDUST, ShardSize: 5},
		{Measure: MeasurePROUD, ShardSize: 5},
		{Measure: MeasureMUNICH, ShardSize: 5, Segments: 4, MUNICH: munich.Options{Bins: 256}},
	}
}

// runIndexQuery executes the measure-appropriate index queries and returns
// a comparable result value.
func runIndexQuery(t testing.TB, e *Engine, qi int, eps float64) interface{} {
	t.Helper()
	if e.Measure().Probabilistic() {
		rng, err := e.ProbRange(qi, eps, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		top, err := e.ProbTopK(qi, eps, 4)
		if err != nil {
			t.Fatal(err)
		}
		return []interface{}{rng, top}
	}
	nn, err := e.TopK(qi, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := e.Range(qi, eps)
	if err != nil {
		t.Fatal(err)
	}
	return []interface{}{nn, rng}
}

// prefiltered reports whether the measure has a prefilter at all.
func prefiltered(m Measure) bool { return m != MeasureDUST && m != MeasureMUNICH }

// TestIndexedParityAllMeasures is the prefilters' bit-identity property: an
// engine with tier 0 or the sketch index engaged and an engine forced onto
// the plain scan must return exactly the same answers — same positions, same
// float64 bits — for every measure, every worker count, index and ad-hoc
// queries, over dense, sparse and freshly compacted snapshots.
func TestIndexedParityAllMeasures(t *testing.T) {
	const n, length = 30, 32
	c := corpus.New(indexCorpusConfig())
	batch := make([]corpus.Series, n)
	for i := range batch {
		batch[i] = corpusSeries(length, int64(i))
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	dense := c.Snapshot()
	if _, ok := dense.Columns(); !ok {
		t.Fatal("insert-only snapshot is not dense")
	}
	// Two sacrificial inserts plus deletes leave the arena sparse (2 dead
	// of 32 rows stays under the compaction threshold).
	extra, err := c.InsertBatch([]corpus.Series{corpusSeries(length, 500), corpusSeries(length, 501)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(extra...); err != nil {
		t.Fatal(err)
	}
	sparse := c.Snapshot()
	if _, ok := sparse.Columns(); ok {
		t.Fatal("post-delete snapshot is unexpectedly dense")
	}
	// Twelve more sacrificial inserts deleted at once push past the
	// quarter-dead threshold and force a compaction (and the bulk tree
	// rebuild that rides along).
	extra2 := make([]corpus.Series, 12)
	for i := range extra2 {
		extra2[i] = corpusSeries(length, int64(600+i))
	}
	ids2, err := c.InsertBatch(extra2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ids2...); err != nil {
		t.Fatal(err)
	}
	compacted := c.Snapshot()
	if _, ok := compacted.Columns(); !ok {
		t.Fatal("deletes past the threshold did not compact")
	}

	adhoc := adhocQueryFor(length)
	const eps = 2.5
	for _, snapCase := range []struct {
		name string
		snap *corpus.Snapshot
	}{{"dense", dense}, {"sparse", sparse}, {"compacted", compacted}} {
		for _, base := range indexMeasureOptions() {
			for _, workers := range []int{1, 2, 8} {
				idxOpts := base
				idxOpts.Workers = workers
				idxOpts.IndexThreshold = -1
				linOpts := idxOpts
				linOpts.NoIndex = true
				ei, err := NewFromSnapshot(snapCase.snap, idxOpts)
				if err != nil {
					t.Fatalf("%s/%s/w=%d: indexed engine: %v", snapCase.name, base.Measure, workers, err)
				}
				el, err := NewFromSnapshot(snapCase.snap, linOpts)
				if err != nil {
					t.Fatalf("%s/%s/w=%d: linear engine: %v", snapCase.name, base.Measure, workers, err)
				}
				if want := prefiltered(base.Measure); ei.Indexed() != want {
					t.Fatalf("%s/%s: Indexed() = %v, want %v", snapCase.name, base.Measure, ei.Indexed(), want)
				}
				if el.Indexed() {
					t.Fatalf("%s/%s: NoIndex engine reports Indexed()", snapCase.name, base.Measure)
				}
				for _, qi := range []int{0, 7, 29} {
					got := runIndexQuery(t, ei, qi, eps)
					want := runIndexQuery(t, el, qi, eps)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s/w=%d q=%d: indexed %v != linear %v", snapCase.name, base.Measure, workers, qi, got, want)
					}
				}
				ipq, err := ei.Prepare(adhoc)
				if err != nil {
					t.Fatal(err)
				}
				lpq, err := el.Prepare(adhoc)
				if err != nil {
					t.Fatal(err)
				}
				got := runPrepared(t, ei, ipq, eps)
				want := runPrepared(t, el, lpq, eps)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/w=%d: ad-hoc indexed answer differs from linear", snapCase.name, base.Measure, workers)
				}
			}
		}
	}
}

// TestIndexedStatsIdentity checks the extended accounting of index queries:
// Candidates still equals the sum of the resolution counters, every
// candidate the linear scan would have examined is either examined or
// accounted to SeriesSkippedByIndex, and only DTW — the one measure left on
// the bucket tree — reports bucket decisions.
func TestIndexedStatsIdentity(t *testing.T) {
	const n, length, queries = 64, 32, 10
	c := corpus.New(indexCorpusConfig())
	batch := make([]corpus.Series, n)
	for i := range batch {
		batch[i] = corpusSeries(length, int64(i))
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	qis := make([]int, queries)
	for i := range qis {
		qis[i] = i
	}
	for _, base := range indexMeasureOptions() {
		opts := base
		opts.IndexThreshold = -1
		e, err := NewFromSnapshot(snap, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base.Measure.Probabilistic() {
			if _, err := e.ProbTopKBatch(qis, 2.0, 3); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := e.TopKBatch(qis, 3); err != nil {
				t.Fatal(err)
			}
		}
		s := e.Stats()
		if sum := s.Completed + s.AbandonedEarly + s.PrunedByEnvelope + s.ResolvedByBounds + s.ResolvedEarly; sum != s.Candidates {
			t.Errorf("%s: resolution counters sum to %d, want Candidates %d", base.Measure, sum, s.Candidates)
		}
		if total := s.Candidates + s.SeriesSkippedByIndex; total != int64(queries*(n-1)) {
			t.Errorf("%s: Candidates %d + SeriesSkippedByIndex %d = %d, want %d",
				base.Measure, s.Candidates, s.SeriesSkippedByIndex, total, queries*(n-1))
		}
		if onTree := base.Measure == MeasureDTW; (s.BucketsVisited > 0) != onTree || (!onTree && s.BucketsPruned != 0) {
			t.Errorf("%s: %d buckets visited, %d pruned; only DTW walks the tree", base.Measure, s.BucketsVisited, s.BucketsPruned)
		}
		if (s.SeriesSkippedByIndex > 0) != prefiltered(base.Measure) {
			t.Errorf("%s: SeriesSkippedByIndex = %d, prefiltered = %v", base.Measure, s.SeriesSkippedByIndex, prefiltered(base.Measure))
		}
	}
}

// TestIndexChurnParity is the incremental-maintenance property: after every
// mutation of an interleaved insert/delete workload (crossing at least one
// compaction), the incrementally maintained index answers bit-identically
// to a bulk-built index over a restored copy of the same snapshot, and to
// the linear scan.
func TestIndexChurnParity(t *testing.T) {
	const length = 24
	c := corpus.New(indexCorpusConfig())
	sawSparse, sawCompaction := false, false
	next := 0
	var live []int
	for step := 0; step < 8; step++ {
		batch := make([]corpus.Series, 6)
		for i := range batch {
			batch[i] = corpusSeries(length, int64(next))
			next++
		}
		var del []int
		if step >= 2 {
			// Delete four of the oldest survivors; every few steps this
			// pushes the dead-row ratio past the compaction threshold.
			del = append(del, live[:4]...)
			live = live[4:]
		}
		ids, err := c.Apply(batch, del)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids...)

		snap := c.Snapshot()
		if _, dense := snap.Columns(); dense {
			if sawSparse {
				sawCompaction = true
			}
		} else {
			sawSparse = true
		}
		if snap.Index() == nil || snap.Index().Len() != snap.Len() {
			t.Fatalf("step %d: index tracks %v members, snapshot holds %d", step, snap.Index(), snap.Len())
		}

		// A restored corpus bulk-builds its index from scratch over the
		// same resident series in the same position order.
		recs := make([]corpus.RestoredSeries, snap.Len())
		for i := 0; i < snap.Len(); i++ {
			ent := snap.Entry(i)
			s := corpus.Series{Values: ent.PDF.Observations}
			if ent.Samples != nil {
				s.Samples = ent.Samples.Samples
			}
			recs[i] = corpus.RestoredSeries{ID: ent.ID, Series: s}
		}
		restored, err := corpus.Restore(snap.Config(), recs, snap.NextID(), snap.Epoch())
		if err != nil {
			t.Fatal(err)
		}
		rsnap := restored.Snapshot()

		for _, base := range indexMeasureOptions() {
			opts := base
			opts.IndexThreshold = -1
			linOpts := opts
			linOpts.NoIndex = true
			inc, err := NewFromSnapshot(snap, opts)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, base.Measure, err)
			}
			bulk, err := NewFromSnapshot(rsnap, opts)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, base.Measure, err)
			}
			lin, err := NewFromSnapshot(snap, linOpts)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, base.Measure, err)
			}
			for _, qi := range []int{0, snap.Len() / 2} {
				got := runIndexQuery(t, inc, qi, 2.5)
				want := runIndexQuery(t, lin, qi, 2.5)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("step %d %s q=%d: incremental index %v != linear %v", step, base.Measure, qi, got, want)
				}
				fresh := runIndexQuery(t, bulk, qi, 2.5)
				if !reflect.DeepEqual(fresh, want) {
					t.Errorf("step %d %s q=%d: bulk-rebuilt index %v != linear %v", step, base.Measure, qi, fresh, want)
				}
			}
		}
	}
	if !sawSparse || !sawCompaction {
		t.Fatalf("churn never exercised both arena states (sparse=%v, compaction=%v)", sawSparse, sawCompaction)
	}
}

// TestIndexFallbacks enumerates the configurations that must fall back to
// the linear scan.
func TestIndexFallbacks(t *testing.T) {
	c := testCorpus(t, 16, 32) // default sketch knobs, cfg.Segments = 4
	snap := c.Snapshot()
	cases := []struct {
		name string
		opts Options
	}{
		{"below default threshold", Options{Measure: MeasureEuclidean}},
		{"NoIndex", Options{Measure: MeasureEuclidean, NoIndex: true, IndexThreshold: -1}},
		{"NoPrune", Options{Measure: MeasureEuclidean, NoPrune: true, IndexThreshold: -1}},
		{"DUST has no prefilter", Options{Measure: MeasureDUST, IndexThreshold: -1}},
		{"MUNICH has no prefilter", Options{Measure: MeasureMUNICH, Segments: 4, IndexThreshold: -1, MUNICH: munich.Options{Bins: 256}}},
		{"DTW band mismatch", Options{Measure: MeasureDTW, Band: 7, IndexThreshold: -1}},
		{"UEMA lambda mismatch", Options{Measure: MeasureUEMA, Lambda: 0.5, IndexThreshold: -1}},
		{"UMA window mismatch", Options{Measure: MeasureUMA, W: 3, IndexThreshold: -1}},
	}
	for _, tc := range cases {
		e, err := NewFromSnapshot(snap, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e.Indexed() {
			t.Errorf("%s: engine unexpectedly indexed", tc.name)
		}
	}
	e, err := NewFromSnapshot(snap, Options{Measure: MeasureEuclidean, IndexThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Indexed() {
		t.Error("negative IndexThreshold did not engage the index")
	}
	// Results through a fallback engine still match: the sanity anchor for
	// every case above.
	want := fmt.Sprintf("%v", runIndexQuery(t, e, 0, 2.5))
	for _, tc := range cases[:3] {
		el, err := NewFromSnapshot(snap, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v", runIndexQuery(t, el, 0, 2.5)); got != want {
			t.Errorf("%s: fallback answer %s != indexed %s", tc.name, got, want)
		}
	}
}
