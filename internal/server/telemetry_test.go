package server

import (
	"context"
	"io"
	"log/slog"
	"testing"

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
