package engine

import (
	"math"
	"strings"
	"sync"

	"uncertts/internal/telemetry"
)

// The engine's metric families: the pruning-cascade and index
// effectiveness fractions over every query the process has run, whichever
// engine answered it — the server rebuilds its engines at every corpus
// epoch, and each in-process shard holds its own.
var (
	prunedRatio = telemetry.NewGaugeVec(
		"uncertts_engine_pruned_ratio",
		"Fraction of considered candidates the pruning cascade resolved without a full refine, by measure (cumulative).",
		"measure")
	indexSkippedRatio = telemetry.NewGaugeVec(
		"uncertts_engine_index_skipped_ratio",
		"Fraction of series a prefilter (tier 0's coarse bound for the lock-step measures and PROUD, the sketch-row bound for DTW) skipped before they became kernel candidates, by measure (cumulative).",
		"measure")
)

// totals are the process's outcome counts by measure, each with its
// measure's two gauges, resolved once at start-up rather than on the query
// path. A gauge reads NaN until its measure has a denominator.
var totals [MeasureMUNICH + 1]struct {
	mu              sync.Mutex
	st              Stats
	pruned, skipped *telemetry.Gauge
}

func init() {
	for _, m := range Measures() {
		// Lowercased to match the wire request spelling, like every other
		// measure-labelled family.
		label := strings.ToLower(m.String())
		t := &totals[m]
		t.pruned, t.skipped = prunedRatio.With(label), indexSkippedRatio.With(label)
		t.pruned.Set(math.NaN())
		t.skipped.Set(math.NaN())
	}
}

// recordOutcomes adds one query's outcome counts to its measure's process
// totals and publishes the totals' ratios. Ratios (not raw counters)
// because each server's /stats already serves its counters losslessly; the
// gauges answer the operator question — is the cascade still earning its
// keep — at a glance.
func recordOutcomes(m Measure, q Stats) {
	t := &totals[m]
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st = t.st.Merge(q)
	if t.st.Candidates > 0 {
		t.pruned.Set(float64(t.st.Pruned()) / float64(t.st.Candidates))
	}
	if seen := t.st.Candidates + t.st.SeriesSkippedByIndex; seen > 0 {
		t.skipped.Set(float64(t.st.SeriesSkippedByIndex) / float64(seen))
	}
}
