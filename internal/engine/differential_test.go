package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
)

// newEngine builds an engine over snap or fails the test.
func newEngine(t testing.TB, snap *corpus.Snapshot, opts Options) *Engine {
	t.Helper()
	e, err := NewFromSnapshot(snap, opts)
	if err != nil {
		t.Fatalf("%v engine: %v", opts.Measure, err)
	}
	return e
}

// mustRun is the one way the tests query an engine: the request goes through
// Run under a background context with its Measure filled in from the engine,
// and any error fails the test. Tests of the error paths call Run themselves.
func mustRun(t testing.TB, e *Engine, req Request) *Result {
	t.Helper()
	req.Measure = e.opts.Measure
	res, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("%v %v: %v", req.Measure, req.Kind, err)
	}
	return res
}

// sameResult compares two results entry by entry, floats by their bits.
func sameResult(a, b *Result) error {
	if a.Kind != b.Kind || a.Total != b.Total || len(a.Neighbors) != len(b.Neighbors) || len(a.IDs) != len(b.IDs) || len(a.Matches) != len(b.Matches) {
		return fmt.Errorf("shapes differ: %v/%v, total %d/%d, %d/%d neighbors, %d/%d ids, %d/%d matches",
			a.Kind, b.Kind, a.Total, b.Total, len(a.Neighbors), len(b.Neighbors), len(a.IDs), len(b.IDs), len(a.Matches), len(b.Matches))
	}
	for i := range a.Neighbors {
		if a.Neighbors[i].ID != b.Neighbors[i].ID || math.Float64bits(a.Neighbors[i].Distance) != math.Float64bits(b.Neighbors[i].Distance) {
			return fmt.Errorf("neighbor %d: %+v vs %+v", i, a.Neighbors[i], b.Neighbors[i])
		}
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return fmt.Errorf("id %d: %d vs %d", i, a.IDs[i], b.IDs[i])
		}
	}
	for i := range a.Matches {
		if a.Matches[i].ID != b.Matches[i].ID || math.Float64bits(a.Matches[i].Prob) != math.Float64bits(b.Matches[i].Prob) {
			return fmt.Errorf("match %d: %+v vs %+v", i, a.Matches[i], b.Matches[i])
		}
	}
	return nil
}

// kindRequests is one request per kind with the parameters the differential
// table uses; the target is filled in per row.
func kindRequests() []Request {
	return []Request{
		{Kind: KindTopK, K: 5},
		{Kind: KindRange, Eps: 2.5},
		{Kind: KindProbTopK, K: 4, Eps: 2.5},
		{Kind: KindProbRange, Eps: 2.5, Tau: 0.1},
	}
}

// checkStatsIdentity holds the counters of exactly one request (the engine
// was reset before it) to both accounting identities: the outcome counters
// sum to Candidates, and every series but the query itself was either a
// candidate or skipped by a prefilter.
func checkStatsIdentity(e *Engine, resident bool) error {
	s := e.Stats()
	if sum := s.Completed + s.AbandonedEarly + s.PrunedByEnvelope + s.ResolvedByBounds + s.ResolvedEarly; sum != s.Candidates {
		return fmt.Errorf("outcome counters sum to %d, Candidates is %d", sum, s.Candidates)
	}
	want := int64(e.Snapshot().Len())
	if resident {
		want--
	}
	if got := s.Candidates + s.SeriesSkippedByIndex; got != want {
		return fmt.Errorf("Candidates %d + SeriesSkippedByIndex %d = %d, want %d", s.Candidates, s.SeriesSkippedByIndex, got, want)
	}
	return nil
}

// munichTiers walks MUNICH's bound hierarchy for one probabilistic range
// request the unhoisted way — both series' bounding intervals read off their
// samples again for every candidate and compared by Bounds' two whole sums,
// the moment bracket taken against tau on both sides — and counts the tier
// each candidate resolves in. The engine, which reads stored intervals and
// abandons the lower sum early, must count the same: tau is a fixed cutoff,
// so no count depends on scan order.
func munichTiers(t *testing.T, e *Engine, req Request) (s Stats) {
	t.Helper()
	var pq *prepared
	var err error
	if req.Index != nil {
		pq, err = e.prepareIndex(*req.Index)
	} else {
		pq, err = e.prepare(*req.AdHoc)
	}
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < e.snap.Len(); ci++ {
		if ci == pq.self {
			continue
		}
		ent := e.snap.Entry(ci)
		s.Candidates++
		if lo, hi, err := munich.BoundingIntervals(pq.sample).Bounds(munich.BoundingIntervals(*ent.Samples)); err != nil {
			t.Fatal(err)
		} else if hi <= req.Eps || lo > req.Eps {
			s.ResolvedByBounds++
			continue
		}
		if munich.ExactFeasible(pq.sample, *ent.Samples) {
			t.Fatal("the table's MUNICH refine is meant to be the convolution")
		}
		if lo, hi := e.opts.MUNICH.MomentBracket(pq.sample, *ent.Samples, req.Eps); hi < req.Tau-probBoundMargin || lo >= req.Tau+probBoundMargin {
			s.ResolvedByBounds++
			continue
		}
		if _, complete, err := munich.ProbabilityCutoff(pq.sample, *ent.Samples, req.Eps, req.Tau, e.opts.MUNICH); err != nil {
			t.Fatal(err)
		} else if complete {
			s.Completed++
		} else {
			s.AbandonedEarly++
		}
	}
	return s
}

// TestDifferentialEveryMeasureKindSourceAndWorkers is the engine's one
// equivalence table: 7 measures x 4 kinds x resident / ad-hoc targets x
// dense / after-delete / interior-hole / compacted snapshots x Workers
// {1, 2, 8} x prefilter engaged / NoIndex. Every served combination must
// answer bit-identically to the unpruned reference (Options.NoPrune over a
// dense snapshot holding the same series under the same IDs at the same
// positions, so the reference also pins reading the arena through the row
// index to reading it directly) with both Stats identities holding per
// request; every combination a measure does not serve must be refused as a
// bad request.
func TestDifferentialEveryMeasureKindSourceAndWorkers(t *testing.T) {
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
	// of 32 rows stays under the compaction threshold) — but only at its
	// tail: every live series still sits in the row of its position.
	churn := func(seeds ...int64) *corpus.Snapshot {
		extra := make([]corpus.Series, len(seeds))
		for i, s := range seeds {
			extra[i] = corpusSeries(length, s)
		}
		ids, err := c.InsertBatch(extra)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(ids...); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot()
	}
	sparse := churn(500, 501)
	if _, ok := sparse.Columns(); ok {
		t.Fatal("post-delete snapshot is unexpectedly dense")
	}
	// Twelve more deleted at once push past the quarter-dead threshold and
	// force a compaction (and the bulk tree rebuild that rides along).
	compacted := churn(600, 601, 602, 603, 604, 605, 606, 607, 608, 609, 610, 611)
	if _, ok := compacted.Columns(); !ok {
		t.Fatal("deletes past the threshold did not compact")
	}
	// Three deleted from the middle and three inserted after them: live rows
	// on both sides of dead ones, so from the first hole on a position is
	// not its arena row and only the row index finds the series. Its
	// reference is a dense corpus ingesting the survivors under their IDs.
	holeSeeds := map[int]int64{}
	for id := 0; id < n; id++ {
		holeSeeds[id] = int64(id)
	}
	if err := c.Delete(3, 11, 12); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.InsertBatch([]corpus.Series{corpusSeries(length, 700), corpusSeries(length, 701), corpusSeries(length, 702)})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range fresh {
		holeSeeds[id] = int64(700 + i)
	}
	hole := c.Snapshot()
	if rows := hole.Arena().Rows; rows == nil || int(rows[2]) != 2 || int(rows[3]) == 3 {
		t.Fatalf("interior-hole snapshot maps positions to rows %v, want a hole at row 3", rows)
	}
	survivors := make([]corpus.Series, n)
	for i, id := range hole.IDs() {
		survivors[i] = corpusSeries(length, holeSeeds[id])
	}
	hc := corpus.New(indexCorpusConfig())
	if _, err := hc.ApplyAt(survivors, hole.IDs(), nil); err != nil {
		t.Fatal(err)
	}
	holeRef := hc.Snapshot()
	if _, ok := holeRef.Columns(); !ok {
		t.Fatal("the interior-hole reference corpus is not dense")
	}

	snaps := []struct {
		name      string
		snap, ref *corpus.Snapshot
	}{{"dense", dense, dense}, {"after-delete", sparse, dense}, {"compacted", compacted, dense}, {"interior-hole", hole, holeRef}}
	for _, sc := range snaps {
		if sc.snap.Len() != n {
			t.Fatalf("%s snapshot holds %d series, want %d", sc.name, sc.snap.Len(), n)
		}
		for i := 0; i < n; i++ {
			if sc.snap.IDAt(i) != sc.ref.IDAt(i) {
				t.Fatalf("%s snapshot: position %d holds series %d, its reference holds %d", sc.name, i, sc.snap.IDAt(i), sc.ref.IDAt(i))
			}
		}
	}

	adhoc := adhocQueryFor(length)
	targets := []Request{{AdHoc: &adhoc}}
	for _, qi := range []int{0, 7, 29} {
		targets = append(targets, Request{Index: &qi})
	}

	for _, base := range allMeasureOptions() {
		m := base.Measure
		refOpts := base
		refOpts.NoPrune = true
		refs := map[*corpus.Snapshot]*Engine{dense: newEngine(t, dense, refOpts), holeRef: newEngine(t, holeRef, refOpts)}
		for _, kr := range kindRequests() {
			for ti, tgt := range targets {
				req := kr
				req.Measure, req.Index, req.AdHoc = m, tgt.Index, tgt.AdHoc
				name := fmt.Sprintf("%v/%v/target=%d", m, req.Kind, ti)
				wants := map[*corpus.Snapshot]*Result{}
				served := req.Kind.Probabilistic() == m.Probabilistic()
				for ref, e := range refs {
					want, refErr := e.Run(context.Background(), req)
					switch {
					case !served && !errors.Is(refErr, qerr.ErrBadRequest):
						t.Errorf("%s: err = %v, want ErrBadRequest (the measure does not serve the kind)", name, refErr)
					case served && refErr != nil:
						t.Fatalf("%s: reference: %v", name, refErr)
					}
					wants[ref] = want
				}
				if !served {
					continue
				}
				for _, sc := range snaps {
					want := wants[sc.ref]
					for _, noIndex := range []bool{false, true} {
						opts := base
						opts.indexThreshold, opts.NoIndex = -1, noIndex
						e := newEngine(t, sc.snap, opts)
						if want := !noIndex && prefiltered(m); engaged(e) != want {
							t.Fatalf("%v/%s/noindex=%v: engaged = %v, want %v", m, sc.name, noIndex, engaged(e), want)
						}
						for _, workers := range []int{1, 2, 8} {
							req.Workers = workers
							e.ResetStats()
							got, err := e.Run(context.Background(), req)
							row := fmt.Sprintf("%s/%s/noindex=%v/w=%d", name, sc.name, noIndex, workers)
							if err != nil {
								t.Fatalf("%s: %v", row, err)
							}
							if err := sameResult(got, want); err != nil {
								t.Errorf("%s: differs from the unpruned reference: %v", row, err)
							}
							if err := checkStatsIdentity(e, req.Index != nil); err != nil {
								t.Errorf("%s: %v", row, err)
							}
							if m == MeasureMUNICH && req.Kind == KindProbRange {
								if got, want := e.Stats(), munichTiers(t, e, req); got != want {
									t.Errorf("%s: stats %+v, the unhoisted walk counts %+v", row, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
