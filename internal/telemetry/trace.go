package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// TraceHeader carries a query's trace ID: set on every /query response so
// clients can quote it, and on the coordinator's scatter legs (/query/stream)
// so every shard a query touches records its spans under the same ID.
const TraceHeader = "X-Uncertts-Trace-Id"

// Span is one timed step of a query's lifecycle (parse, index descent,
// per-shard scatter, kernel refine, merge). Spans are created by
// Trace.Start and closed by End/EndErr; an unclosed span exposes a zero
// duration rather than corrupting the trace.
type Span struct {
	name  string
	start time.Time

	mu    sync.Mutex
	dur   time.Duration
	ended bool
	err   string
}

// End closes the span.
func (sp *Span) End() { sp.EndErr(nil) }

// EndErr closes the span, recording err (when non-nil) as its failure.
// Nil-safe: spans started from a nil trace are nil and End-ing them is a
// no-op, so instrumentation needs no trace-presence checks.
func (sp *Span) EndErr(err error) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.ended {
		return
	}
	sp.ended = true
	sp.dur = time.Since(sp.start)
	if err != nil {
		sp.err = err.Error()
	}
}

// SpanJSON is a span's wire form in /debug/trace and the slow-query log.
type SpanJSON struct {
	Name string `json:"name"`
	// OffsetMS is the span's start relative to the trace's start.
	OffsetMS   float64 `json:"offset_ms"`
	DurationMS float64 `json:"duration_ms"`
	Error      string  `json:"error,omitempty"`
}

// Trace accumulates the spans of one query under one ID. Methods are safe
// for concurrent use (scatter legs span from their own goroutines) and
// nil-safe, so code paths without an active trace carry zero cost beyond
// a nil check.
type Trace struct {
	id    string
	op    string
	start time.Time

	mu       sync.Mutex
	kind     string
	measure  string
	spans    []*Span
	err      string
	degraded bool
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a span. Nil-safe: a nil trace returns a nil span.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// SetQuery annotates the trace with the query's kind and measure.
func (t *Trace) SetQuery(kind, measure string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.kind, t.measure = kind, measure
	t.mu.Unlock()
}

// Fail records the query's terminal error.
func (t *Trace) Fail(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.err = err.Error()
	t.mu.Unlock()
}

// SetDegraded marks the trace as a degraded (partial) cluster answer.
func (t *Trace) SetDegraded() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.degraded = true
	t.mu.Unlock()
}

// TraceJSON is a finished trace's wire form.
type TraceJSON struct {
	ID         string     `json:"trace_id"`
	Op         string     `json:"op"`
	Kind       string     `json:"kind,omitempty"`
	Measure    string     `json:"measure,omitempty"`
	Start      time.Time  `json:"start"`
	DurationMS float64    `json:"duration_ms"`
	Error      string     `json:"error,omitempty"`
	Degraded   bool       `json:"degraded,omitempty"`
	Spans      []SpanJSON `json:"spans,omitempty"`
}

// snapshot renders the trace with the given total duration.
func (t *Trace) snapshot(dur time.Duration) TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{
		ID:         t.id,
		Op:         t.op,
		Kind:       t.kind,
		Measure:    t.measure,
		Start:      t.start,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Error:      t.err,
		Degraded:   t.degraded,
	}
	for _, sp := range t.spans {
		sp.mu.Lock()
		out.Spans = append(out.Spans, SpanJSON{
			Name:       sp.name,
			OffsetMS:   float64(sp.start.Sub(t.start)) / float64(time.Millisecond),
			DurationMS: float64(sp.dur) / float64(time.Millisecond),
			Error:      sp.err,
		})
		sp.mu.Unlock()
	}
	return out
}

type traceCtxKey struct{}

// WithTrace attaches a trace to the context; the serving layers below
// (engine, cluster scatter) pick it up with TraceFrom.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's trace, or nil — and nil traces make
// every span operation a no-op, so callers never branch.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// mintID returns a fresh 16-hex-char trace ID.
func mintID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// A broken crypto/rand should not fail queries; an untraceable
		// constant ID is the graceful floor.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Tracer owns the finished-trace ring served by /debug/trace and the
// slow-query log. One default tracer serves the process; tests inject
// their own through the server/coordinator options.
type Tracer struct {
	mu     sync.Mutex
	slow   time.Duration
	logger *slog.Logger
	ring   []TraceJSON
	next   int
	total  int
}

// NewTracer returns a tracer keeping the last ringSize finished traces
// and logging (via logger, JSON-to-stderr when nil) every query slower
// than slow (0 disables the slow-query log).
func NewTracer(ringSize int, slow time.Duration, logger *slog.Logger) *Tracer {
	if ringSize <= 0 {
		ringSize = 128
	}
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return &Tracer{slow: slow, logger: logger, ring: make([]TraceJSON, ringSize)}
}

var defaultTracer = NewTracer(128, 0, nil)

// DefaultTracer is the process-wide tracer; uncertserve configures its
// slow-query threshold from -slow-query.
func DefaultTracer() *Tracer { return defaultTracer }

// SetSlowThreshold sets the slow-query log threshold (0 disables).
func (tc *Tracer) SetSlowThreshold(d time.Duration) {
	tc.mu.Lock()
	tc.slow = d
	tc.mu.Unlock()
}

// StartTrace begins a trace under op. An empty id mints a fresh one; a
// non-empty id adopts the caller's (how shards join the coordinator's
// trace via the TraceHeader).
func (tc *Tracer) StartTrace(id, op string) *Trace {
	if id == "" {
		id = mintID()
	}
	return &Trace{id: id, op: op, start: time.Now()}
}

// Finish closes the trace: it lands in the /debug/trace ring and, when it
// ran longer than the slow threshold, in the slow-query log.
func (tc *Tracer) Finish(t *Trace) {
	if t == nil {
		return
	}
	dur := time.Since(t.start)
	rec := t.snapshot(dur)
	tc.mu.Lock()
	tc.ring[tc.next] = rec
	tc.next = (tc.next + 1) % len(tc.ring)
	tc.total++
	slow := tc.slow
	logger := tc.logger
	tc.mu.Unlock()
	if slow > 0 && dur >= slow {
		spans, _ := json.Marshal(rec.Spans)
		logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
			slog.String("trace_id", rec.ID),
			slog.String("op", rec.Op),
			slog.String("kind", rec.Kind),
			slog.String("measure", rec.Measure),
			slog.Float64("duration_ms", rec.DurationMS),
			slog.Bool("degraded", rec.Degraded),
			slog.String("error", rec.Error),
			slog.String("spans", string(spans)),
		)
	}
}

// Recent returns up to n finished traces, newest first (n <= 0 returns
// everything retained).
func (tc *Tracer) Recent(n int) []TraceJSON {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	size := len(tc.ring)
	have := tc.total
	if have > size {
		have = size
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([]TraceJSON, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, tc.ring[((tc.next-i)%size+size)%size])
	}
	return out
}

// HandleDebugTrace serves GET /debug/trace?n=N: the last N finished
// traces (default: the whole ring), newest first.
func (tc *Tracer) HandleDebugTrace(w http.ResponseWriter, r *http.Request) {
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tc.Recent(n))
}
