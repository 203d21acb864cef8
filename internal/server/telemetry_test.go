package server

import (
	"context"
	"encoding/json"
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
	"uncertts/internal/qerr"
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

// inChild reruns the named test alone in a child test process and reports
// whether the caller is that child. The pruning gauges are process-wide, so a
// test that reads them runs where no other test's queries reach them.
func inChild(t *testing.T, name string) bool {
	if slices.Equal(flag.Args(), []string{name}) {
		return true
	}
	out, err := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1", name).CombinedOutput()
	if err != nil {
		t.Fatalf("the child process failed: %v\n%s", err, out)
	}
	return false
}

// checkGauges holds the two pruning gauges on /metrics, for every measure
// of sum, to the ratios of sum's counts.
func checkGauges(t *testing.T, sum map[string]engine.Stats) {
	t.Helper()
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
		for m, st := range sum {
			if st.Candidates == 0 {
				t.Fatalf("%s ran no candidates", m)
			}
			if want := ratio(st); got[m] != want {
				t.Errorf("%s{measure=%q} = %v, want %v (summed stats %+v)", fam, m, got[m], want, st)
			}
		}
	}
}

// TestPruningGaugesCoverTheProcess: the two pruning gauges on /metrics are
// the ratios of the outcome counts of every query the process ran — here
// two servers, each queried over two corpus epochs — not of whichever
// engine answered last. The gauges are process-wide, so the test reruns
// itself alone in a child process, where no other test's queries reach
// them.
func TestPruningGaugesCoverTheProcess(t *testing.T) {
	if !inChild(t, "TestPruningGaugesCoverTheProcess") {
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

	checkGauges(t, sum)
}

// TestStatsAndGaugesCountFinishedQueries: every query runs on an engine of
// its own, and its work joins /stats and the pruning gauges once it has run.
// Over queries before a mutation, after it, and one cancelled mid-scan,
// /stats per measure is the sum of the queries' own work, and both gauges are
// the ratios of that sum. A finished query's work is read off a second engine
// of the test's own over the snapshot it ran against (one worker, as served,
// so the same work); the cancelled query's off the engine it ran on.
func TestStatsAndGaugesCountFinishedQueries(t *testing.T) {
	if !inChild(t, "TestStatsAndGaugesCountFinishedQueries") {
		return
	}
	srv, ts := testServer(t, 1100, 24) // the prefilters engage from 1024 series
	cases := []QueryRequest{
		{Measure: "euclidean", Type: "topk", K: 3},
		{Measure: "dtw", Type: "topk", K: 3},
		{Measure: "proud", Type: "probrange", Eps: 2, Tau: 0.1},
	}
	sum := make(map[string]engine.Stats)
	for epoch := 0; epoch < 2; epoch++ {
		if epoch > 0 {
			postJSON(t, ts.URL+"/series", SeriesRequest{Insert: []SeriesJSON{testSeries(24, 2000)}}, &SeriesResponse{})
		}
		for _, req := range cases {
			id := 5 + epoch
			req.ID = &id
			e, _, ereq, err := srv.plan(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(context.Background(), ereq); err != nil {
				t.Fatal(err)
			}
			sum[req.Measure] = sum[req.Measure].Merge(e.Stats())
			if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d", req.Measure, req.Type, r.StatusCode)
			}
		}
	}

	// A range query whose first match cancels it, as a client hanging up on
	// /query/stream would: the batch that found it ends, no other starts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	id := 7
	e, _, ereq, done, err := srv.start(ctx, QueryRequest{Measure: "euclidean", Type: "range", Eps: 100, ID: &id})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RunStream(ctx, ereq, func(engine.Item) error { cancel(); return nil })
	done(err)
	if !qerr.IsCancellation(err) {
		t.Fatalf("the cancelled query returned %v", err)
	}
	cut := e.Stats()
	if met, n := cut.Candidates+cut.SeriesSkippedByIndex, int64(srv.Corpus().Snapshot().Len()-1); cut.Candidates == 0 || met >= n {
		t.Fatalf("the cancelled query met %d of %d series (%d candidates): not a query cut mid-scan", met, n, cut.Candidates)
	}
	sum["euclidean"] = sum["euclidean"].Merge(cut)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Measures) != len(sum) {
		t.Errorf("/stats reports %d measures, want %d", len(st.Measures), len(sum))
	}
	for m, ms := range st.Measures {
		if want := sum[strings.ToLower(m)]; ms.Stats != want {
			t.Errorf("/stats %s = %+v, want the queries' summed work %+v", m, ms.Stats, want)
		}
	}
	checkGauges(t, sum)
}
