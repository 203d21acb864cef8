package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTraceSpansAndRing(t *testing.T) {
	tc := NewTracer(4, 0, slog.New(slog.NewJSONHandler(bytes.NewBuffer(nil), nil)))
	tr := tc.StartTrace("", "query")
	if tr.ID() == "" {
		t.Fatal("no trace ID minted")
	}
	tr.SetQuery("topk", "dtw")
	sp := tr.Start("parse")
	sp.End()
	sp2 := tr.Start("scatter:s1")
	sp2.EndErr(errors.New("shard down"))
	tr.SetDegraded()
	tc.Finish(tr)

	recent := tc.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(recent))
	}
	rec := recent[0]
	if rec.ID != tr.ID() || rec.Kind != "topk" || rec.Measure != "dtw" || !rec.Degraded {
		t.Fatalf("trace record mismatch: %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Name != "parse" || rec.Spans[1].Error != "shard down" {
		t.Fatalf("span records mismatch: %+v", rec.Spans)
	}
}

func TestTraceAdoptsCallerID(t *testing.T) {
	tc := NewTracer(4, 0, nil)
	tr := tc.StartTrace("deadbeef00000001", "cluster_query")
	if tr.ID() != "deadbeef00000001" {
		t.Fatalf("trace did not adopt the caller's ID: %s", tr.ID())
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Start("anything")
	sp.End()
	sp.EndErr(errors.New("x"))
	tr.SetQuery("topk", "dtw")
	tr.Fail(errors.New("x"))
	tr.SetDegraded()
	if tr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	ctx := WithTrace(context.Background(), nil)
	if TraceFrom(ctx) != nil {
		t.Fatal("nil trace attached to context")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tc := NewTracer(4, 0, nil)
	tr := tc.StartTrace("", "query")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("background context carries a trace")
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tc := NewTracer(2, 0, nil)
	for i := 0; i < 3; i++ {
		tc.Finish(tc.StartTrace("", "query"))
	}
	recent := tc.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("ring holds %d, want 2", len(recent))
	}
	if one := tc.Recent(1); len(one) != 1 || one[0].ID != recent[0].ID {
		t.Fatalf("Recent(1) = %+v, want newest %s", one, recent[0].ID)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	tc := NewTracer(4, time.Nanosecond, slog.New(slog.NewJSONHandler(&buf, nil)))
	tr := tc.StartTrace("", "query")
	tr.SetQuery("range", "euclidean")
	sp := tr.Start("refine")
	time.Sleep(time.Millisecond)
	sp.End()
	tc.Finish(tr)

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-query log is not one JSON record: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "slow query" || rec["trace_id"] != tr.ID() || rec["kind"] != "range" {
		t.Fatalf("slow-query record mismatch: %v", rec)
	}
	if rec["spans"] == "" {
		t.Fatal("slow-query record carries no spans")
	}

	// Below the threshold: nothing is logged.
	buf.Reset()
	tc.SetSlowThreshold(time.Hour)
	tc.Finish(tc.StartTrace("", "query"))
	if buf.Len() != 0 {
		t.Fatalf("fast query was logged: %s", buf.String())
	}
}

func TestDebugTraceHandler(t *testing.T) {
	tc := NewTracer(8, 0, nil)
	tr := tc.StartTrace("", "query")
	tr.Start("parse").End()
	tc.Finish(tr)

	req := httptest.NewRequest("GET", "/debug/trace?n=5", nil)
	w := httptest.NewRecorder()
	tc.HandleDebugTrace(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var out []TraceJSON
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != tr.ID() || len(out[0].Spans) != 1 {
		t.Fatalf("debug trace payload mismatch: %+v", out)
	}

	w = httptest.NewRecorder()
	tc.HandleDebugTrace(w, httptest.NewRequest("GET", "/debug/trace?n=bogus", nil))
	if w.Code != 400 {
		t.Fatalf("bogus n answered %d, want 400", w.Code)
	}
}
