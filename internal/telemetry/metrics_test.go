package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_ops_total", "ops")
	g := r.NewGauge("t_depth_ratio", "depth")
	h := r.NewHistogram("t_lat_seconds", "latency", []float64{0.1, 1})

	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	if got := histCount(h); got != 3 {
		t.Fatalf("histogram count = %d, want 3", got)
	}
	if got := h.Sum(); got != 5.55 {
		t.Fatalf("histogram sum = %v, want 5.55", got)
	}

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE t_ops_total counter",
		"t_ops_total 5",
		"t_depth_ratio 2",
		`t_lat_seconds_bucket{le="0.1"} 1`,
		`t_lat_seconds_bucket{le="1"} 2`,
		`t_lat_seconds_bucket{le="+Inf"} 3`,
		"t_lat_seconds_sum 5.55",
		"t_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition is missing %q:\n%s", want, out)
		}
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("t_q_total", "queries", "kind", "measure")
	cv.With("topk", "dtw").Inc()
	cv.With("topk", "dtw").Inc()
	cv.With("range", "euclidean").Inc()
	if got := cv.With("topk", "dtw").Value(); got != 2 {
		t.Fatalf("child = %d, want 2", got)
	}

	hv := r.NewHistogramVec("t_q_seconds", "latency", []float64{1}, "shard")
	hv.With("s0").Observe(0.5)
	hv.With("s1").Observe(2)

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`t_q_total{kind="range",measure="euclidean"} 1`,
		`t_q_total{kind="topk",measure="dtw"} 2`,
		`t_q_seconds_bucket{shard="s0",le="1"} 1`,
		`t_q_seconds_bucket{shard="s1",le="+Inf"} 1`,
		`t_q_seconds_count{shard="s1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition is missing %q:\n%s", want, out)
		}
	}
}

// TestHotPathAllocatesNothing holds the package's promise as counts: an
// update — on a plain instrument or on a labelled child resolved once with
// With — allocates nothing.
func TestHotPathAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_hot_total", "c")
	g := r.NewGauge("t_hot_ratio", "g")
	h := r.NewHistogram("t_hot_seconds", "h", nil)
	child := r.NewCounterVec("t_hot_lbl_total", "cv", "kind", "measure").With("topk", "dtw")
	hchild := r.NewHistogramVec("t_hot_lbl_seconds", "hv", nil, "kind", "measure").With("topk", "dtw")
	for name, update := range map[string]func(){
		"Counter.Inc":                c.Inc,
		"Counter.Add":                func() { c.Add(3) },
		"Gauge.Set":                  func() { g.Set(0.5) },
		"Gauge.Add":                  func() { g.Add(-0.25) },
		"Histogram.Observe":          func() { h.Observe(0.003) },
		"CounterVec child Inc":       child.Inc,
		"HistogramVec child Observe": func() { hchild.Observe(0.003) },
	} {
		if n := testing.AllocsPerRun(100, update); n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", name, n)
		}
	}
}

func TestNameValidation(t *testing.T) {
	for name, ok := range map[string]bool{
		"uncertts_queries_total":   true,
		"uncertts_wal_bytes":       true,
		"uncertts_lat_seconds":     true,
		"uncertts_pruned_ratio":    true,
		"uncertts_queries":         false, // no unit suffix
		"UncerttsQueriesTotal":     false, // not snake_case
		"_queries_total":           false, // leading underscore
		"uncertts.queries.total":   false,
		"uncertts_queries_count":   false, // _count is a histogram-internal suffix
		"uncertts_queries_total ":  false,
		"9uncertts_queries_total":  false,
		"uncertts_queries_seconds": true,
	} {
		if got := ValidMetricName(name); got != ok {
			t.Errorf("ValidMetricName(%q) = %v, want %v", name, got, ok)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("registering an unsuffixed name did not panic")
		}
	}()
	r := NewRegistry()
	r.NewCounter("bad_name", "no unit suffix")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("t_dup_total", "second")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_conc_total", "c")
	h := r.NewHistogram("t_conc_seconds", "h", []float64{1})
	cv := r.NewCounterVec("t_conc_lbl_total", "cv", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := cv.With("w") // shared child across goroutines
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
				child.Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 || histCount(h) != 8000 || cv.With("w").Value() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d vec=%d", c.Value(), histCount(h), cv.With("w").Value())
	}
}

func TestHandlerRoundTripsThroughParser(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_round_total", "count").Inc()
	r.NewGauge("t_round_ratio", "ratio").Set(0.25)
	r.NewHistogramVec("t_round_seconds", "lat", []float64{0.1}, "kind").With("topk").Observe(0.05)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	fams, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	for _, name := range []string{"t_round_total", "t_round_ratio", "t_round_seconds"} {
		fam := fams[name]
		if fam == nil {
			t.Fatalf("family %s missing from scrape", name)
		}
		if len(fam.Samples) == 0 {
			t.Fatalf("family %s has no samples", name)
		}
	}
	if fams["t_round_seconds"].Type != "histogram" {
		t.Errorf("t_round_seconds TYPE = %q", fams["t_round_seconds"].Type)
	}
	var le string
	for _, s := range fams["t_round_seconds"].Samples {
		if s.Name == "t_round_seconds_bucket" && s.Labels["kind"] == "topk" && s.Value == 1 {
			le = s.Labels["le"]
			break
		}
	}
	if le != "0.1" {
		t.Errorf("first populated bucket le = %q, want 0.1", le)
	}
}

// histCount returns the number of observations h holds.
func histCount(h *Histogram) int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
