package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/server"
	"uncertts/internal/telemetry"
)

// newShardServerWithTracer is newShardServer with an injected tracer, so
// a test can observe the traces a shard finishes.
func newShardServerWithTracer(t testing.TB, tr *telemetry.Tracer) *server.Server {
	t.Helper()
	c := corpus.New(corpus.Config{ReportedSigma: 0.3, Segments: 4})
	return server.New(c, server.Options{MUNICH: munich.Options{Bins: 256}, Tracer: tr})
}

// traceRecorder captures the trace header each shard leg received, so the
// cross-process propagation contract is asserted on the actual wire.
type traceRecorder struct {
	mu   sync.Mutex
	seen map[int]string // shard index -> trace header on /query/stream
}

func (tr *traceRecorder) middleware(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query/stream" {
			tr.mu.Lock()
			tr.seen[i] = r.Header.Get(telemetry.TraceHeader)
			tr.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

// TestDegradedQueryTelemetry kills one shard and drives a query through
// the coordinator's HTTP surface, asserting the full observability story:
// the degraded-query and per-shard error counters move, the response
// carries the minted trace ID in its header (never the JSON body), the
// live shards received that exact ID on their scatter legs, and the
// finished trace records a span per shard plus the merge — with the dead
// shard's span carrying the error.
func TestDegradedQueryTelemetry(t *testing.T) {
	tracer := telemetry.NewTracer(8, 0, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	rec := &traceRecorder{seen: map[int]string{}}
	co, _, httpServers := httpCluster(t, 3, Options{Tracer: tracer}, rec.middleware)
	ingest(t, co, 12, 16)

	degradedBefore := degradedQueries.Value()
	shardErrBefore := shardErrors.With(shardName(2), "unreachable").Value()

	front := httptest.NewServer(co.Handler())
	defer front.Close()
	httpServers[2].Close()

	body, err := json.Marshal(server.QueryRequest{Measure: "euclidean", Type: "topk", K: 4, Series: seriesPtr(16, 7)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query should answer 200, got %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(telemetry.TraceHeader)
	if traceID == "" {
		t.Fatal("response is missing the trace ID header")
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(traceID)) {
		t.Fatal("the trace ID leaked into the JSON body; it must travel only in the header")
	}
	var out Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || len(out.ShardErrors) != 1 || out.ShardErrors[0].Shard != shardName(2) {
		t.Fatalf("want a degraded answer missing shard-2, got %+v", out)
	}

	if got := degradedQueries.Value() - degradedBefore; got != 1 {
		t.Errorf("degraded-query counter moved by %d, want 1", got)
	}
	if got := shardErrors.With(shardName(2), "unreachable").Value() - shardErrBefore; got != 1 {
		t.Errorf("shard-error counter {shard-2, unreachable} moved by %d, want 1", got)
	}

	rec.mu.Lock()
	for _, i := range []int{0, 1} {
		if rec.seen[i] != traceID {
			t.Errorf("shard %d saw trace header %q, want %q", i, rec.seen[i], traceID)
		}
	}
	rec.mu.Unlock()

	recent := tracer.Recent(1)
	if len(recent) != 1 {
		t.Fatalf("tracer retained %d traces, want 1", len(recent))
	}
	tr := recent[0]
	if tr.ID != traceID || tr.Op != "cluster_scatter" || !tr.Degraded {
		t.Fatalf("trace record mismatch: %+v", tr)
	}
	if tr.Kind != "topk" || tr.Measure != "euclidean" {
		t.Fatalf("trace should carry the query labels, got kind=%q measure=%q", tr.Kind, tr.Measure)
	}
	spans := map[string]telemetry.SpanJSON{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = sp
	}
	for _, name := range []string{"scatter:shard-0", "scatter:shard-1", "scatter:shard-2", "merge"} {
		if _, ok := spans[name]; !ok {
			t.Errorf("trace is missing span %q (have %v)", name, spanNames(tr.Spans))
		}
	}
	if sp := spans["scatter:shard-2"]; sp.Error == "" {
		t.Error("the dead shard's scatter span should record its error")
	}
	for _, name := range []string{"scatter:shard-0", "scatter:shard-1", "merge"} {
		if sp := spans[name]; sp.Error != "" {
			t.Errorf("span %q records error %q, want none", name, sp.Error)
		}
	}
}

func spanNames(spans []telemetry.SpanJSON) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestShardAdoptsCoordinatorTraceID asserts the shard side of the
// contract: a /query/stream leg carrying a trace header finishes a shard
// trace under that exact ID, so one grep correlates the coordinator's
// trace with every shard's.
func TestShardAdoptsCoordinatorTraceID(t *testing.T) {
	shardTracer := telemetry.NewTracer(8, 0, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	srv := newShardServerWithTracer(t, shardTracer)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	co := New([]Shard{NewHTTP(shardName(0), hs.URL, nil)},
		Options{Tracer: telemetry.NewTracer(8, 0, slog.New(slog.NewJSONHandler(io.Discard, nil)))})
	ingest(t, co, 6, 16)

	front := httptest.NewServer(co.Handler())
	defer front.Close()
	body, err := json.Marshal(server.QueryRequest{Measure: "euclidean", Type: "topk", K: 3, Series: seriesPtr(16, 2)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	traceID := resp.Header.Get(telemetry.TraceHeader)
	if traceID == "" {
		t.Fatal("coordinator response is missing the trace ID header")
	}

	recent := shardTracer.Recent(1)
	if len(recent) != 1 {
		t.Fatalf("shard tracer retained %d traces, want 1", len(recent))
	}
	if recent[0].ID != traceID {
		t.Fatalf("shard finished trace %q, want the coordinator's %q", recent[0].ID, traceID)
	}
	if recent[0].Op != "query_stream" {
		t.Fatalf("shard trace op = %q, want query_stream", recent[0].Op)
	}
}
