package engine

import (
	"fmt"
	"testing"
)

// cascadeOutcomes is the package doc's cascade table as the Stats counters
// each measure's stages can end a candidate in, beside SeriesSkippedByIndex
// (the prefilter's, for the measures that have one).
var cascadeOutcomes = map[Measure][]string{
	MeasureEuclidean: {"Completed", "AbandonedEarly"},
	MeasureUMA:       {"Completed", "AbandonedEarly"},
	MeasureUEMA:      {"Completed", "AbandonedEarly"},
	MeasureDTW:       {"Completed", "AbandonedEarly", "PrunedByEnvelope"},
	MeasureDUST:      {"Completed", "AbandonedEarly"},
	MeasurePROUD:     {"Completed", "AbandonedEarly", "ResolvedEarly"},
	MeasureMUNICH:    {"Completed", "AbandonedEarly", "ResolvedByBounds"},
}

// outcomeCounts names the outcome counters of s.
func outcomeCounts(s Stats) map[string]int64 {
	return map[string]int64{
		"Completed":        s.Completed,
		"AbandonedEarly":   s.AbandonedEarly,
		"PrunedByEnvelope": s.PrunedByEnvelope,
		"ResolvedByBounds": s.ResolvedByBounds,
		"ResolvedEarly":    s.ResolvedEarly,
	}
}

// TestCascadeOutcomesPerMeasure holds every measure to its declared cascade:
// over both kinds it serves, resident and ad-hoc, with the prefilter engaged
// and without, no candidate lands in a counter outside its measure's stages,
// every declared counter is reached somewhere in the table, and the
// prefilter skips series exactly where one is engaged.
func TestCascadeOutcomesPerMeasure(t *testing.T) {
	snap := prefilterCorpus(t)
	adhoc := adhocQueryFor(snap.SeriesLen())
	for _, base := range allMeasureOptions() {
		m := base.Measure
		declared := map[string]bool{}
		for _, name := range cascadeOutcomes[m] {
			declared[name] = true
		}
		reached := map[string]bool{}
		for _, noIndex := range []bool{false, true} {
			opts := base
			opts.indexThreshold, opts.NoIndex = -1, noIndex
			e := newEngine(t, snap, opts)
			for _, kr := range kindRequests() {
				if kr.Kind.Probabilistic() != m.Probabilistic() {
					continue
				}
				targets := []Request{{AdHoc: &adhoc}}
				for qi := 0; qi < 12; qi++ {
					targets = append(targets, Request{Index: &qi})
				}
				for _, tgt := range targets {
					req := kr
					req.Index, req.AdHoc = tgt.Index, tgt.AdHoc
					mustRun(t, e, req)
				}
				if kr.Kind == KindProbTopK {
					// A tight k-th best early on is what makes PROUD and
					// MUNICH abandon a refine rather than resolve it.
					for qi := 0; qi < 12; qi++ {
						req := kr
						req.K, req.Index = 1, &qi
						mustRun(t, e, req)
					}
				}
			}
			s := e.Stats()
			row := fmt.Sprintf("%v/noindex=%v", m, noIndex)
			for name, n := range outcomeCounts(s) {
				if n > 0 && !declared[name] {
					t.Errorf("%s: %d candidates in %s, outside the measure's cascade", row, n, name)
				}
				reached[name] = reached[name] || n > 0
			}
			if want := !noIndex && prefiltered(m); (s.SeriesSkippedByIndex > 0) != want {
				t.Errorf("%s: SeriesSkippedByIndex = %d, prefilter engaged = %v", row, s.SeriesSkippedByIndex, want)
			}
		}
		for name := range declared {
			if !reached[name] {
				t.Errorf("%v: no candidate reached %s; the table does not exercise the stage", m, name)
			}
		}
	}
}

// TestBatchTalliesAddUpToTheScan pins the per-batch outcome tally: a range
// kind's cut is static, so its Stats cannot depend on how the candidates
// are cut into batches or how many workers drain them. Every batch size from
// one candidate to the whole snapshot, at one and at several workers, must
// count exactly what the single-batch scan counts — including the batch that
// steps around the query itself in two spans.
func TestBatchTalliesAddUpToTheScan(t *testing.T) {
	snap := prefilterCorpus(t)
	for _, base := range allMeasureOptions() {
		req := Request{Kind: KindRange, Eps: 2.5}
		if base.Measure.Probabilistic() {
			req = Request{Kind: KindProbRange, Eps: 2.5, Tau: 0.1}
		}
		var want Stats
		for i, shard := range []int{snap.Len(), 1, 3, 7} {
			for _, workers := range []int{1, 3} {
				opts := base
				opts.indexThreshold, opts.ShardSize = -1, shard
				e := newEngine(t, snap, opts)
				for qi := 0; qi < 8; qi++ {
					r := req
					r.Index, r.Workers = &qi, workers
					mustRun(t, e, r)
				}
				if i == 0 && workers == 1 {
					want = e.Stats()
					continue
				}
				if got := e.Stats(); got != want {
					t.Errorf("%v shard=%d workers=%d: %+v, one batch counts %+v", base.Measure, shard, workers, got, want)
				}
			}
		}
	}
}
