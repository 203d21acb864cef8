package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
	"uncertts/internal/stats"
)

// testCorpus builds a corpus of deterministic series, each with a sample
// model so every measure can run.
func testCorpus(t testing.TB, series, length int) *corpus.Corpus {
	t.Helper()
	c := corpus.New(corpus.Config{ReportedSigma: 0.3, Segments: 4})
	batch := make([]corpus.Series, series)
	for s := range batch {
		batch[s] = corpusSeries(length, int64(s))
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	return c
}

// corpusSeries derives one deterministic series (values + samples) from a
// seed.
func corpusSeries(length int, seed int64) corpus.Series {
	rng := stats.NewRand(seed + 1000)
	s := corpus.Series{Values: make([]float64, length), Samples: make([][]float64, length)}
	for i := range s.Values {
		s.Values[i] = math.Sin(float64(seed)*0.7+float64(i)*0.31) + 0.2*rng.NormFloat64()
		row := make([]float64, 3)
		for j := range row {
			row[j] = s.Values[i] + 0.15*rng.NormFloat64()
		}
		s.Samples[i] = row
	}
	return s
}

// allMeasureOptions enumerates one engine configuration per measure, with
// the cheap estimator settings the MUNICH tests use. Geometry is the
// corpus', so a prefilter engages wherever one exists once the snapshot
// reaches the threshold (tests on small corpora lower it to -1): tier 0 for
// the lock-step measures and PROUD, the sketch rows for DTW (DUST and MUNICH
// have neither).
func allMeasureOptions() []Options {
	return []Options{
		{Measure: MeasureEuclidean, ShardSize: 5},
		{Measure: MeasureUMA, ShardSize: 5},
		{Measure: MeasureUEMA, ShardSize: 5},
		{Measure: MeasureDTW, ShardSize: 5},
		{Measure: MeasureDUST, ShardSize: 5},
		{Measure: MeasurePROUD, ShardSize: 5},
		{Measure: MeasureMUNICH, ShardSize: 5, MUNICH: munich.Options{Bins: 256}},
	}
}

// adhocQueryFor derives an ad-hoc query (not resident in the corpus) of
// the given length.
func adhocQueryFor(length int) Query {
	s := corpusSeries(length, 999)
	return Query{Values: s.Values, Samples: s.Samples}
}

// answers runs both kinds the engine's measure serves against one target (a
// Request with only Index or AdHoc set) and returns a comparable value.
func answers(t testing.TB, e *Engine, target Request, eps float64) interface{} {
	t.Helper()
	ask := func(req Request) *Result {
		req.Index, req.AdHoc = target.Index, target.AdHoc
		return mustRun(t, e, req)
	}
	if e.opts.Measure.Probabilistic() {
		return []interface{}{
			ask(Request{Kind: KindProbRange, Eps: eps, Tau: 0.1}).IDs,
			ask(Request{Kind: KindProbTopK, Eps: eps, K: 4}).Matches,
		}
	}
	return []interface{}{
		ask(Request{Kind: KindTopK, K: 5}).Neighbors,
		ask(Request{Kind: KindRange, Eps: eps}).IDs,
	}
}

// errorModelConfigs are the three ways a corpus sets the error model of a
// series inserted without one: the reported sigma alone; per-timestamp Sigmas
// for the UMA/UEMA filters; per-timestamp Errors, whose stddevs the filters
// then read, and no Sigmas. The stddevs vary by timestamp and differ from the
// reported sigma, so a query filtered under any other model is not the series.
func errorModelConfigs(length int) []struct {
	name string
	cfg  corpus.Config
} {
	sigmas, errs := make([]float64, length), make([]stats.Dist, length)
	for i := range sigmas {
		sigmas[i] = 0.1 + 0.07*float64(i%5)
		errs[i] = stats.NewNormal(0, sigmas[i])
	}
	return []struct {
		name string
		cfg  corpus.Config
	}{
		{"default", corpus.Config{ReportedSigma: 0.3, Segments: 4}},
		{"sigmas", corpus.Config{ReportedSigma: 0.3, Segments: 4, Sigmas: sigmas}},
		{"errors", corpus.Config{ReportedSigma: 0.3, Segments: 4, Errors: errs}},
	}
}

// TestAdHocQueryOfResidentSeriesSeesItself: an ad-hoc query carrying a
// resident series' values (and samples) is that series to every measure,
// whatever the corpus' default error model, with the prefilters engaged or
// not. A top-1 query finds it at distance exactly 0 (ad-hoc queries exclude
// nothing), and a range query answers what the resident query answers, plus
// the series itself where it matches (the resident query excludes it).
func TestAdHocQueryOfResidentSeriesSeesItself(t *testing.T) {
	const length = 24
	qi := 3
	for _, cc := range errorModelConfigs(length) {
		c := corpus.New(cc.cfg)
		for s := range 12 {
			if _, err := c.Insert(corpusSeries(length, int64(s))); err != nil {
				t.Fatal(err)
			}
		}
		snap := c.Snapshot()
		ent := snap.Entry(qi)
		self := &Query{Values: ent.PDF.Observations, Samples: ent.Samples.Samples}
		// eps reaches the fourth nearest neighbour under Euclidean distance.
		near := mustRun(t, newEngine(t, snap, Options{}), Request{Kind: KindTopK, Index: &qi, K: 4}).Neighbors
		eps := near[3].Distance
		for _, opts := range allMeasureOptions() {
			for _, threshold := range []int{0, -1} {
				opts.indexThreshold = threshold
				e := newEngine(t, snap, opts)
				name := fmt.Sprintf("%s/%v/threshold=%d", cc.name, opts.Measure, threshold)
				kind, rangeReq := KindRange, Request{Kind: KindRange, Eps: 2 * eps}
				if opts.Measure.Probabilistic() {
					kind, rangeReq = KindProbRange, Request{Kind: KindProbRange, Eps: 2 * eps, Tau: 0.1}
				} else if nn := mustRun(t, e, Request{Kind: KindTopK, AdHoc: self, K: 1}).Neighbors; len(nn) != 1 || nn[0].ID != qi || nn[0].Distance != 0 {
					t.Errorf("%s: ad-hoc self query: top-1 %+v, want position %d at distance 0", name, nn, qi)
				}
				rangeReq.Index = &qi
				resident := mustRun(t, e, rangeReq).IDs
				if slices.Contains(resident, qi) {
					t.Errorf("%s %v: the resident query did not exclude itself", name, kind)
				}
				rangeReq.Index, rangeReq.AdHoc = nil, self
				adhoc := slices.DeleteFunc(mustRun(t, e, rangeReq).IDs, func(id int) bool { return id == qi })
				if len(resident) == 0 || !slices.Equal(adhoc, resident) {
					t.Errorf("%s %v: ad-hoc answer without the series %v, resident answer %v (want equal, not empty)", name, kind, adhoc, resident)
				}
			}
		}
	}
}

// TestAdHocValidation exercises the ad-hoc preparation error paths.
func TestAdHocValidation(t *testing.T) {
	c := testCorpus(t, 8, 16)
	snap := c.Snapshot()
	e := newEngine(t, snap, Options{Measure: MeasureEuclidean})
	me := newEngine(t, snap, Options{Measure: MeasureMUNICH, MUNICH: munich.Options{Bins: 128}})
	for _, tc := range []struct {
		name string
		e    *Engine
		req  Request
		want error
	}{
		{"wrong-length query", e, Request{Kind: KindTopK, K: 3, AdHoc: &Query{Values: make([]float64, 9)}}, qerr.ErrLengthMismatch},
		{"negative sigma", e, Request{Kind: KindTopK, K: 3, AdHoc: &Query{Values: make([]float64, 16), Sigma: -1}}, qerr.ErrBadRequest},
		{"MUNICH without samples", me, Request{Measure: MeasureMUNICH, Kind: KindProbTopK, K: 3, Eps: 1, AdHoc: &Query{Values: make([]float64, 16)}}, qerr.ErrBadRequest},
		{"MUNICH sample model of the wrong length", me, Request{Measure: MeasureMUNICH, Kind: KindProbTopK, K: 3, Eps: 1, AdHoc: &Query{Samples: make([][]float64, 9)}}, qerr.ErrLengthMismatch},
	} {
		if _, err := tc.e.Run(context.Background(), tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// MUNICH reads the sample model alone: a query without values answers
	// as the same query with them.
	q := adhocQueryFor(16)
	with := answers(t, me, Request{AdHoc: &q}, 2)
	if without := answers(t, me, Request{AdHoc: &Query{Samples: q.Samples}}, 2); !reflect.DeepEqual(without, with) {
		t.Errorf("MUNICH query without values answered %v, with them %v", without, with)
	}
	if fmt.Sprint(with) == "[[] []]" {
		t.Error("the MUNICH query matched nothing: the comparison proves nothing")
	}
}

// TestSnapshotIsolationUnderConcurrentMutation is the acceptance test of
// the corpus refactor: queries running concurrently with Insert/Delete
// return results bit-identical to the unpruned scan of the snapshot they
// started on, for every measure and worker counts {1, 2, 8}.
func TestSnapshotIsolationUnderConcurrentMutation(t *testing.T) {
	c := testCorpus(t, 20, 24)
	snap := c.Snapshot()
	q := adhocQueryFor(24)
	target := Request{AdHoc: &q}
	const eps = 2.0

	// Reference answers, computed on the frozen snapshot before any
	// mutation.
	type ref struct {
		opts Options
		want interface{}
	}
	var refs []ref
	for _, opts := range allMeasureOptions() {
		naiveOpts := opts
		naiveOpts.NoPrune = true
		refs = append(refs, ref{opts: opts, want: answers(t, newEngine(t, snap, naiveOpts), target, eps)})
	}

	// Writers mutate the corpus while readers query the old snapshot.
	var writers sync.WaitGroup
	stopWriting := make(chan struct{})
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWriting:
				return
			default:
			}
			id, err := c.Insert(corpusSeries(24, int64(2000+i)))
			if err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := c.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var readers sync.WaitGroup
	for _, r := range refs {
		for _, workers := range []int{1, 2, 8} {
			readers.Add(1)
			go func(r ref, workers int) {
				defer readers.Done()
				opts := r.opts
				opts.Workers = workers
				e, err := NewFromSnapshot(snap, opts)
				if err != nil {
					t.Error(err)
					return
				}
				for rep := 0; rep < 3; rep++ {
					got := answers(t, e, target, eps)
					if !reflect.DeepEqual(got, r.want) {
						t.Errorf("%s workers=%d: snapshot query changed under concurrent mutation", r.opts.Measure, workers)
						return
					}
				}
			}(r, workers)
		}
	}
	readers.Wait()
	close(stopWriting)
	writers.Wait()

	if c.Snapshot().Epoch() == snap.Epoch() {
		t.Fatal("writer never published a mutation; the test proved nothing")
	}
}

func TestStatsMergeAndString(t *testing.T) {
	a := Stats{Candidates: 10, Completed: 4, AbandonedEarly: 3, PrunedByEnvelope: 1, ResolvedByBounds: 1, ResolvedEarly: 1}
	b := Stats{Candidates: 5, Completed: 5}
	m := a.Merge(b)
	want := Stats{Candidates: 15, Completed: 9, AbandonedEarly: 3, PrunedByEnvelope: 1, ResolvedByBounds: 1, ResolvedEarly: 1}
	if m != want {
		t.Fatalf("Merge = %+v, want %+v", m, want)
	}
	if m.Pruned() != 6 {
		t.Errorf("Pruned() = %d, want 6", m.Pruned())
	}
	got := m.String()
	wantStr := fmt.Sprintf("%d candidates, %d completed, %d abandoned early, %d envelope-pruned, %d resolved by bounds, %d resolved on a prefix (40.0%% of the scan skipped)",
		m.Candidates, m.Completed, m.AbandonedEarly, m.PrunedByEnvelope, m.ResolvedByBounds, m.ResolvedEarly)
	if got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
	if (Stats{}).String() == "" {
		t.Error("zero stats should still render")
	}
}

// TestEngineReadsArenaColumnsInPlace verifies the one-layout contract: an
// engine binds the corpus' arena columns — the storage the entry views alias
// — instead of deriving or copying anything.
func TestEngineReadsArenaColumnsInPlace(t *testing.T) {
	c := testCorpus(t, 6, 40)
	snap := c.Snapshot()
	dtw := newEngine(t, snap, Options{Measure: MeasureDTW})
	if &dtw.upper.at(0)[0] != &snap.Entry(0).Upper[0] || &dtw.lower.at(5)[0] != &snap.Entry(5).Lower[0] {
		t.Error("DTW engine does not alias the corpus envelopes")
	}
	uma := newEngine(t, snap, Options{Measure: MeasureUMA})
	if &uma.vecs.at(3)[0] != &snap.Arena().UMA.Row(3)[0] {
		t.Error("UMA engine does not alias the corpus filtered vectors")
	}
}
