package engine

import (
	"strings"

	"uncertts/internal/telemetry"
)

// The engine's metric families: the pruning-cascade and index
// effectiveness fractions, fed from the cumulative Stats counters after
// every query so /metrics tracks what /stats already proves.
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

// recordStatsMetrics publishes the measure's cumulative pruning picture.
// Ratios (not raw counters) because the counters are already served
// losslessly by /stats; the gauges answer the operator question — is the
// cascade still earning its keep — at a glance.
func recordStatsMetrics(m Measure, st Stats) {
	// Lowercased to match the wire request spelling, like every other
	// measure-labelled family.
	label := strings.ToLower(m.String())
	if st.Candidates > 0 {
		prunedRatio.With(label).Set(float64(st.Pruned()) / float64(st.Candidates))
	}
	if seen := st.Candidates + st.SeriesSkippedByIndex; seen > 0 {
		indexSkippedRatio.With(label).Set(float64(st.SeriesSkippedByIndex) / float64(seen))
	}
}
