package cluster

import "uncertts/internal/telemetry"

// The coordinator's metric families: the scatter-gather picture a single
// shard cannot see — per-shard leg latency, how often answers degrade,
// and which shards fail and how.
var (
	scatterDuration = telemetry.NewHistogramVec(
		"uncertts_cluster_scatter_duration_seconds",
		"One shard's leg of a scattered query, by shard.",
		nil, "shard")
	degradedQueries = telemetry.NewCounter(
		"uncertts_cluster_degraded_queries_total",
		"Queries answered from a partial shard set (at least one shard dropped).")
	shardErrors = telemetry.NewCounterVec(
		"uncertts_cluster_shard_errors_total",
		"Failed shard legs, by shard and failure kind (timeout or unreachable).",
		"shard", "kind")
)
