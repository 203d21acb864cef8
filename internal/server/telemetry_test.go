package server

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"uncertts/internal/engine"
	"uncertts/internal/telemetry"
)

// envelopeAllocs is what the observability envelope adds to one query in
// heap objects, as measured when the test was written: the minted trace ID
// and the trace, the context value, the engine's refine span and its slot
// in the trace, the lowercased measure label, the two labelled-child
// lookups and the closure of track, and the finished record's span list.
const envelopeAllocs = 12

// raceAllocs is the race detector's share: its crypto/rand allocates once
// more per minted trace ID (set by race_test.go).
var raceAllocs = 0

// TestQueryTelemetryEnvelopeAllocations is the cost line of the telemetry
// layer, as a count: a query run the way handleQuery runs it — a minted
// trace in the context, the server's counter and latency observes (track)
// and the tracer's finish — allocates at most envelopeAllocs objects more
// than the same Engine.Run under a bare context.
func TestQueryTelemetryEnvelopeAllocations(t *testing.T) {
	srv, _ := testServer(t, 64, 32)
	id := 3
	req := QueryRequest{Measure: "euclidean", Type: "topk", K: 5, ID: &id}
	e, _, ereq, err := srv.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(8, 0, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	ctx := context.Background()
	bare := testing.AllocsPerRun(100, func() {
		if _, err := e.Run(ctx, ereq); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(100, func() {
		tr := tracer.StartTrace("", "query")
		tr.SetQuery(queryLabels(req))
		done := track(req)
		_, err := e.Run(telemetry.WithTrace(ctx, tr), ereq)
		done(err)
		tr.Fail(err)
		tracer.Finish(tr)
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.Run: %v objects bare, %v under the telemetry envelope", bare, traced)
	if want := envelopeAllocs + raceAllocs; traced-bare > float64(want) {
		t.Errorf("the telemetry envelope adds %v objects per query, want at most %d", traced-bare, want)
	}
}

// TestPruningGaugesCoverTheProcess: the two pruning gauges on /metrics are
// the ratios of the outcome counts of every query the process ran — here
// two servers, each queried over two corpus epochs — not of whichever
// engine answered last. The gauges are process-wide, so the test reruns
// itself alone in a child process, where no other test's queries reach
// them.
func TestPruningGaugesCoverTheProcess(t *testing.T) {
	const name = "TestPruningGaugesCoverTheProcess"
	if !slices.Equal(flag.Args(), []string{name}) {
		out, err := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1", name).CombinedOutput()
		if err != nil {
			t.Fatalf("the child process failed: %v\n%s", err, out)
		}
		return
	}
	cases := []QueryRequest{
		{Measure: "euclidean", Type: "topk", K: 3},
		{Measure: "uma", Type: "range", Eps: 3},
		{Measure: "uema", Type: "topk", K: 2},
		{Measure: "dtw", Type: "topk", K: 3},
		{Measure: "dust", Type: "topk", K: 3},
		{Measure: "proud", Type: "probrange", Eps: 2, Tau: 0.1},
		{Measure: "munich", Type: "probrange", Eps: 2, Tau: 0.1},
	}
	sum := make(map[string]engine.Stats)
	for i := 0; i < 2; i++ {
		srv, ts := testServer(t, 1024+4*i, 24) // the prefilters engage from 1024 series
		for epoch := 0; epoch < 2; epoch++ {
			if epoch > 0 {
				postJSON(t, ts.URL+"/series", SeriesRequest{Insert: []SeriesJSON{testSeries(24, int64(100+i))}}, &SeriesResponse{})
			}
			for _, req := range cases {
				for _, id := range []int{1, 5} {
					req.ID = &id
					if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK {
						t.Fatalf("%s/%s: status %d", req.Measure, req.Type, r.StatusCode)
					}
				}
			}
		}
		for m, st := range srv.Stats().Measures {
			sum[strings.ToLower(m)] = sum[strings.ToLower(m)].Merge(st.Stats)
		}
	}

	rec := httptest.NewRecorder()
	telemetry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := telemetry.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for fam, ratio := range map[string]func(engine.Stats) float64{
		"uncertts_engine_pruned_ratio": func(st engine.Stats) float64 { return float64(st.Pruned()) / float64(st.Candidates) },
		"uncertts_engine_index_skipped_ratio": func(st engine.Stats) float64 {
			return float64(st.SeriesSkippedByIndex) / float64(st.Candidates+st.SeriesSkippedByIndex)
		},
	} {
		got := make(map[string]float64)
		for _, s := range fams[fam].Samples {
			got[s.Labels["measure"]] = s.Value
		}
		for _, req := range cases {
			st := sum[req.Measure]
			if st.Candidates == 0 {
				t.Fatalf("%s ran no candidates", req.Measure)
			}
			if want := ratio(st); got[req.Measure] != want {
				t.Errorf("%s{measure=%q} = %v, want %v (summed stats %+v)", fam, req.Measure, got[req.Measure], want, st)
			}
		}
	}
}
