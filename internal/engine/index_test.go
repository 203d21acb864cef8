package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
)

// indexCorpusConfig is the geometry the index tests pin: a tiny leaf
// capacity so even a few dozen series split into many buckets.
func indexCorpusConfig() corpus.Config {
	return corpus.Config{ReportedSigma: 0.3, Segments: 4, SketchLeafCap: 4}
}

// residentAnswers is answers for the resident series at position qi.
func residentAnswers(t testing.TB, e *Engine, qi int, eps float64) interface{} {
	t.Helper()
	return answers(t, e, Request{Index: &qi}, eps)
}

// prefiltered reports whether the measure has a prefilter at all.
func prefiltered(m Measure) bool { return m != MeasureDUST && m != MeasureMUNICH }

// prefilterCorpus is 64 series under the index-test geometry.
func prefilterCorpus(t *testing.T) *corpus.Snapshot {
	t.Helper()
	const n, length = 64, 32
	c := corpus.New(indexCorpusConfig())
	batch := make([]corpus.Series, n)
	for i := range batch {
		batch[i] = corpusSeries(length, int64(i))
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot()
}

// TestIndexedStatsIdentity checks the accounting of prefiltered queries over
// a run of requests: Candidates still equals the sum of the resolution
// counters, every candidate the linear scan would have examined is either
// examined or accounted to SeriesSkippedByIndex, only DTW — the one measure
// left on the bucket tree — reports bucket decisions, and Distance, the
// reference lookup tests interleave with queries, moves no counter.
func TestIndexedStatsIdentity(t *testing.T) {
	const queries = 10
	snap := prefilterCorpus(t)
	n := snap.Len()
	for _, base := range allMeasureOptions() {
		opts := base
		opts.IndexThreshold = -1
		e := newEngine(t, snap, opts)
		for qi := 0; qi < queries; qi++ {
			req := Request{Kind: KindTopK, Index: &qi, K: 3}
			if base.Measure.Probabilistic() {
				req.Kind, req.Eps = KindProbTopK, 2.0
			}
			mustRun(t, e, req)
			before := e.Stats()
			if _, err := e.Distance(qi, (qi+1)%n); err != nil && !base.Measure.Probabilistic() {
				t.Fatal(err)
			}
			if after := e.Stats(); after != before {
				t.Fatalf("%s: Distance moved the counters: %+v -> %+v", base.Measure, before, after)
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

// TestStatsStringNamesThePrefilter pins the one-line summary /stats and
// uncertquery print: whatever a prefilter skipped is reported, with bucket
// counts only where the bucket tree ran, and a plain scan says nothing about
// an index.
func TestStatsStringNamesThePrefilter(t *testing.T) {
	snap := prefilterCorpus(t)
	for _, tc := range []struct {
		name    string
		opts    Options
		skipped bool // "N series skipped" is printed
		buckets bool // "N buckets visited, N pruned" is printed
	}{
		{"tier 0", Options{Measure: MeasureEuclidean, IndexThreshold: -1}, true, false},
		{"bucket tree", Options{Measure: MeasureDTW, IndexThreshold: -1}, true, true},
		{"plain scan", Options{Measure: MeasureEuclidean, NoIndex: true}, false, false},
	} {
		e := newEngine(t, snap, tc.opts)
		qi := 5
		mustRun(t, e, Request{Kind: KindTopK, Index: &qi, K: 3})
		s := e.Stats()
		line := s.String()
		wantSkipped := fmt.Sprintf("%d series skipped", s.SeriesSkippedByIndex)
		if got := strings.Contains(line, "; index: ") && strings.HasSuffix(line, wantSkipped); got != tc.skipped {
			t.Errorf("%s: skipped clause present = %v, want %v: %q", tc.name, got, tc.skipped, line)
		}
		wantBuckets := fmt.Sprintf("index: %d buckets visited, %d pruned, ", s.BucketsVisited, s.BucketsPruned)
		if got := strings.Contains(line, wantBuckets); got != tc.buckets {
			t.Errorf("%s: bucket clause present = %v, want %v: %q", tc.name, got, tc.buckets, line)
		}
		if tc.skipped && s.SeriesSkippedByIndex == 0 {
			t.Errorf("%s: the prefilter skipped nothing; the case proves nothing", tc.name)
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

		for _, base := range allMeasureOptions() {
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
				got := residentAnswers(t, inc, qi, 2.5)
				want := residentAnswers(t, lin, qi, 2.5)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("step %d %s q=%d: incremental index %v != linear %v", step, base.Measure, qi, got, want)
				}
				fresh := residentAnswers(t, bulk, qi, 2.5)
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
	c := testCorpus(t, 16, 32) // default sketch knobs
	snap := c.Snapshot()
	cases := []struct {
		name string
		opts Options
	}{
		{"below default threshold", Options{Measure: MeasureEuclidean}},
		{"NoIndex", Options{Measure: MeasureEuclidean, NoIndex: true, IndexThreshold: -1}},
		{"NoPrune", Options{Measure: MeasureEuclidean, NoPrune: true, IndexThreshold: -1}},
		{"DUST has no prefilter", Options{Measure: MeasureDUST, IndexThreshold: -1}},
		{"MUNICH has no prefilter", Options{Measure: MeasureMUNICH, IndexThreshold: -1, MUNICH: munich.Options{Bins: 256}}},
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
	want := fmt.Sprintf("%v", residentAnswers(t, e, 0, 2.5))
	for _, tc := range cases[:3] {
		el, err := NewFromSnapshot(snap, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v", residentAnswers(t, el, 0, 2.5)); got != want {
			t.Errorf("%s: fallback answer %s != indexed %s", tc.name, got, want)
		}
	}
}
