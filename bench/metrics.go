package main

import (
	"slices"

	"uncertts/bench/gen"
)

// spec declares one metric: its unit, which direction is better, and (for
// end-to-end metrics) the share of the baseline median by which it may get
// worse before a change counts as a regression.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Workloads lists where the metric exists; nil means every workload.
	// BENCHMARK.json's schema has no such column: the driver expects every
	// end-to-end metric from every workload, so only the metrics with nil
	// here are listed there. The others are judged by -compare and -sets.
	Workloads []string `json:"workloads,omitempty"`
}

func (s spec) on(workload string) bool {
	return s.Workloads == nil || slices.Contains(s.Workloads, workload)
}

const (
	lower  = "lower"
	higher = "higher"
)

var (
	onLight    = []string{"query_light"}
	onHeavy    = []string{"query_heavy"}
	onDurable  = []string{"mixed_durable"}
	onLightMix = []string{"query_light", "mixed_durable", "sharded"}
)

// endToEnd is what a user of the server sees. Bounds come from runs on ten
// seeds, several times over, on the reference box: max(10%, 2 x the observed
// inter-quartile spread), capped at the 25% the driver allows. Within a
// stretch of the shared host the spreads are 2-6%; between a quiet and a busy
// stretch the light mixes and the set-up move by up to 20% whatever the
// statistic, which puts every timing bound at the cap. See README.md for the
// measurements.
func endToEnd() []spec {
	specs := []spec{
		{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
		{Name: "throughput_qps", Unit: "1/s", Better: higher, Bound: 0.25},
		{Name: "query_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
		{Name: "query_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
		{Name: "server_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
		{Name: "query_p99_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: onLightMix},
		{Name: "dtw_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: onHeavy},
		{Name: "dust_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: onHeavy},
		{Name: "munich_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: onHeavy},
	}
	return append(specs,
		spec{Name: "slo_rate_qps", Unit: "1/s", Better: higher, Bound: 0.25, Workloads: onLight},
		spec{Name: "ingest_series_per_s", Unit: "1/s", Better: higher, Bound: 0.10, Workloads: onDurable},
		spec{Name: "write_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: onDurable},
		spec{Name: "recovery_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: onDurable},
		// error_rate is judged absolutely: any rise fails, whatever the bound.
		spec{Name: "error_rate", Unit: "ratio", Better: lower},
	)
}

// driverEndToEnd is the part of endToEnd that BENCHMARK.json lists and a
// --trace 0 run prints on its last line: the metrics every workload has.
// error_rate is not among them because the driver's object carries it as
// failed over attempted, and because a metric there must never be 0.
func driverEndToEnd() []spec {
	return slices.DeleteFunc(endToEnd(), func(s spec) bool { return s.Workloads != nil || s.Name == "error_rate" })
}

// sloLimitMS is the latency limit of the open-loop phases: a rate meets it
// when its p99 from intended send time stays at or below it, nothing failed
// and the backlog did not grow. The p99 of each rate itself is a diagnostic,
// not a bounded metric: two sets of unchanged code put it at 9 and 76 ms at
// 200 qps, because a 2 s phase has four samples beyond its p99 and one stall
// moves it (see README.md).
const sloLimitMS = 25.0

// measures lists every measure a mix uses, in first-use order.
func measures(mixes ...gen.Mix) []string {
	var out []string
	for _, mix := range mixes {
		for _, op := range mix.Ops {
			if !slices.Contains(out, op.Measure) {
				out = append(out, op.Measure)
			}
		}
	}
	return out
}

// perLayer is the list a traced run emits, the same for every workload: the
// probe times the public functions of every layer on the run's generated
// inputs whether or not the workload's traffic reaches them, and README.md
// says which workload each one should move.
func perLayer() []spec {
	var specs []spec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			specs = append(specs, spec{Name: n, Unit: unit, Better: better})
		}
	}
	add("ms", lower, "http.overhead_ms")
	add("us", lower, "server.parse_us", "server.parse_adhoc_us", "server.encode_us", "server.handler_self_us")
	add("ms", lower, "server.engine_rebuild_ms", "server.mutate_ms")
	for _, mix := range []gen.Mix{gen.LightMix, gen.HeavyMix} {
		for _, op := range mix.Ops {
			if !op.AdHoc {
				add("ms", lower, "engine.run_ms."+op.Name, "engine.scan_ms."+op.Name)
			}
		}
	}
	for _, m := range measures(gen.LightMix, gen.HeavyMix) {
		add("count", lower, "engine.candidates_per_query."+m, "engine.completed_per_query."+m)
		add("ratio", higher, "engine.pruned_ratio."+m, "engine.index_skipped_ratio."+m)
		add("bytes", lower, "engine.bytes_touched_per_query."+m)
		add("ms", lower, "engine.build_ms."+m)
	}
	add("ms", lower, "sketch.build_ms")
	add("us", lower, "sketch.update_us", "sketch.locate_us")
	add("ns", lower, "sketch.mindist_ns")
	add("count", lower, "sketch.buckets")
	add("ns", lower, "distance.sqeuclid_ea_ns", "distance.lbkeogh_ns", "distance.dtwband_ns", "dust.distance_ns", "proud.distance_ns")
	add("us", lower, "munich.probability_us")
	add("ns", lower, "munich.envelope_lb_ns")
	add("ms", lower, "corpus.insert_batch512_ms_per_series", "corpus.insert_batch8_ms", "corpus.delete8_ms")
	add("ns", lower, "corpus.snapshot_ns")
	add("ms", lower, "store.append_ms", "store.sync_ms", "store.checkpoint_ms", "store.open_recover_ms")
	add("ratio", lower, "store.wal_bytes_per_user_byte", "store.checkpoint_bytes_per_user_byte")
	add("count", lower, "store.fsyncs_per_mutation")
	add("ms", lower, "cluster.query_ms", "cluster.slowest_leg_ms")
	add("ratio", lower, "cluster.leg_skew_ratio")
	add("us", lower, "cluster.merge_self_us")
	add("count", lower, "cluster.bound_pushes_per_query")
	add("ratio", lower, "cluster.completed_ratio_vs_single")
	add("ms", lower, "cluster.mutate_ms")
	add("ms", lower, "telemetry.scrape_ms")
	add("ratio", higher, "budget.explained_ratio")
	add("ratio", lower, "trace.overhead_ratio")
	return specs
}
