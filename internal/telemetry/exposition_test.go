package telemetry

import (
	"slices"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exposition bytes of one of every kind: plain
// and labelled counters, gauges and histograms, a labelled family with no
// children, a scrape-time gauge, default buckets, and children created out
// of label order (exposition sorts them).
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("g_ops_total", "Operations.").Add(7)
	r.NewGauge("g_depth_ratio", "Depth.").Set(0.25)
	h := r.NewHistogram("g_lat_seconds", "Latency.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(3)
	cv := r.NewCounterVec("g_queries_total", "Queries.", "kind", "measure")
	cv.With("topk", "uma").Add(2)
	cv.With("range", "dtw").Inc()
	cv.With("topk", "dtw").Add(5)
	gv := r.NewGaugeVec("g_pruned_ratio", "Pruned.", "measure")
	gv.With("uema").Set(0.5)
	gv.With("dust").Set(-1.5)
	r.NewCounterVec("g_idle_total", "No child yet.", "shard")
	r.NewGaugeFunc("g_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.NewHistogram("g_default_seconds", "Default buckets.", nil).Observe(0.003)
	hv := r.NewHistogramVec("g_scatter_seconds", "Scatter.", []float64{1}, "shard")
	hv.With("shard-1").Observe(2)
	hv.With("shard-0").Observe(0.5)

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenExposition {
		t.Errorf("exposition changed:\n%s\nwant:\n%s", got, goldenExposition)
	}
}

// TestLabelValuesRoundTrip: a label value is escaped once, as the text
// format defines it (backslash, double quote, line feed), so the parser
// reads back exactly the value the child was created with.
func TestLabelValuesRoundTrip(t *testing.T) {
	values := []string{`a"b`, `a\b`, "a\nb", "a\tb", "Zürich 東京"}
	r := NewRegistry()
	cv := r.NewCounterVec("g_shard_total", "Shards.", "shard")
	for _, v := range values {
		cv.With(v).Inc()
	}
	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, b.String())
	}
	var read []string
	for _, s := range fams["g_shard_total"].Samples {
		read = append(read, s.Labels["shard"])
	}
	for _, v := range values {
		if !slices.Contains(read, v) {
			t.Errorf("label value %q does not round-trip; read back %q", v, read)
		}
	}
}

const goldenExposition = `# HELP g_ops_total Operations.
# TYPE g_ops_total counter
g_ops_total 7
# HELP g_depth_ratio Depth.
# TYPE g_depth_ratio gauge
g_depth_ratio 0.25
# HELP g_lat_seconds Latency.
# TYPE g_lat_seconds histogram
g_lat_seconds_bucket{le="0.5"} 1
g_lat_seconds_bucket{le="2"} 1
g_lat_seconds_bucket{le="+Inf"} 2
g_lat_seconds_sum 3.25
g_lat_seconds_count 2
# HELP g_queries_total Queries.
# TYPE g_queries_total counter
g_queries_total{kind="range",measure="dtw"} 1
g_queries_total{kind="topk",measure="dtw"} 5
g_queries_total{kind="topk",measure="uma"} 2
# HELP g_pruned_ratio Pruned.
# TYPE g_pruned_ratio gauge
g_pruned_ratio{measure="dust"} -1.5
g_pruned_ratio{measure="uema"} 0.5
# HELP g_idle_total No child yet.
# TYPE g_idle_total counter
# HELP g_uptime_seconds Uptime.
# TYPE g_uptime_seconds gauge
g_uptime_seconds 12.5
# HELP g_default_seconds Default buckets.
# TYPE g_default_seconds histogram
g_default_seconds_bucket{le="0.0001"} 0
g_default_seconds_bucket{le="0.00025"} 0
g_default_seconds_bucket{le="0.0005"} 0
g_default_seconds_bucket{le="0.001"} 0
g_default_seconds_bucket{le="0.0025"} 0
g_default_seconds_bucket{le="0.005"} 1
g_default_seconds_bucket{le="0.01"} 1
g_default_seconds_bucket{le="0.025"} 1
g_default_seconds_bucket{le="0.05"} 1
g_default_seconds_bucket{le="0.1"} 1
g_default_seconds_bucket{le="0.25"} 1
g_default_seconds_bucket{le="0.5"} 1
g_default_seconds_bucket{le="1"} 1
g_default_seconds_bucket{le="2.5"} 1
g_default_seconds_bucket{le="5"} 1
g_default_seconds_bucket{le="10"} 1
g_default_seconds_bucket{le="+Inf"} 1
g_default_seconds_sum 0.003
g_default_seconds_count 1
# HELP g_scatter_seconds Scatter.
# TYPE g_scatter_seconds histogram
g_scatter_seconds_bucket{shard="shard-0",le="1"} 1
g_scatter_seconds_bucket{shard="shard-0",le="+Inf"} 1
g_scatter_seconds_sum{shard="shard-0"} 0.5
g_scatter_seconds_count{shard="shard-0"} 1
g_scatter_seconds_bucket{shard="shard-1",le="1"} 0
g_scatter_seconds_bucket{shard="shard-1",le="+Inf"} 1
g_scatter_seconds_sum{shard="shard-1"} 2
g_scatter_seconds_count{shard="shard-1"} 1
`
