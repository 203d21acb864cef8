// Package server exposes a corpus and its query engines over HTTP/JSON —
// the serving tier that turns the batch reproduction into a system:
//
//	POST /query         similarity queries (topk, range, probtopk,
//	                    probrange) across every measure, against resident
//	                    series (by stable corpus ID) or ad-hoc series
//	                    shipped in the request;
//	POST /query/stream  the same queries with incremental NDJSON results:
//	                    one record per confirmed neighbour, then a final
//	                    stats record (a cluster shard answers its scatter
//	                    leg here, see cluster.go);
//	POST /series        ingestion and deletion;
//	GET  /stats         corpus geometry (epoch, series, length, next
//	                    unassigned ID) and per-measure engine accounting.
//
// Routes are registered with their methods ("POST /query", "GET /stats"):
// any other method gets the mux's 405, with an Allow header.
//
// Every query endpoint, the cluster coordinator's /query too, opens its query
// through OpenQuery, under the HTTP request's context: a client that hangs up
// cancels its query (the executor drains promptly), and timeout_ms, else
// Options.DefaultTimeout, bounds the work server-side. Each query parses
// straight into one declarative engine.Request and executes through
// Engine.Run. Failures are typed — qerr sentinels, which map mechanically to
// HTTP status codes (qerr.Status: 400 for validation, 404 for unknown IDs,
// 504 for expired deadlines).
//
// Requests execute on the engine's work-stealing executor with a
// per-request worker budget, against whatever corpus snapshot is current
// when the request arrives. Snapshot isolation does the heavy lifting for
// concurrency: a query keeps its snapshot for its whole execution, so
// in-flight queries are never perturbed by concurrent ingestion, and
// writers never wait for readers.
//
// Every query runs on its own engine, built from the snapshot current when
// it arrives: building one binds the corpus arena columns, the same few
// allocations whatever the corpus size, because the per-series artifacts
// (envelopes, filtered vectors, filter columns, energies, phi tables) and
// the geometry they were built under (band, filter window, segment count:
// the corpus' corpus.Config, which the server does not second-guess) live in
// the corpus arenas, which snapshots share. /stats and the pruning gauges
// count finished queries: each query's work is added to both once it has
// run.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"uncertts/internal/corpus"
	"uncertts/internal/engine"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
	"uncertts/internal/stats"
	"uncertts/internal/store"
	"uncertts/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// DefaultWorkers is the worker budget of a request that does not ask
	// for one (0 = 1: concurrent requests parallelise across, not within,
	// requests by default).
	DefaultWorkers int
	// MaxWorkers caps any request's worker budget (0 = GOMAXPROCS).
	MaxWorkers int
	// DefaultTimeout bounds a query that does not carry its own
	// timeout_ms (0 = no server-side bound). Expiry cancels the query's
	// context, drains the executor and answers 504.
	DefaultTimeout time.Duration
	// MUNICH sets the bin count of the convolution MUNICH engines refine
	// with (uncertserve -munich-bins).
	MUNICH munich.Options
	// Store optionally attaches the durability engine behind the corpus:
	// /healthz then reports WAL and checkpoint state, and POST
	// /admin/checkpoint triggers a checkpoint + WAL compaction on demand.
	Store *store.Store
	// Tracer receives this server's finished query traces (nil = the
	// process-wide telemetry.DefaultTracer). Tests inject their own to
	// observe spans without the shared ring.
	Tracer *telemetry.Tracer
}

// Server serves similarity queries over a corpus. It is safe for
// concurrent use.
type Server struct {
	c    *corpus.Corpus
	opts Options

	mu   sync.Mutex
	work map[engine.Measure]engine.Stats // every finished query's, by measure (/stats)

	// tracer collects finished query traces for /debug/trace and the
	// slow-query log.
	tracer *telemetry.Tracer
}

// New returns a server over the corpus.
func New(c *corpus.Corpus, opts Options) *Server {
	if opts.DefaultWorkers <= 0 {
		opts.DefaultWorkers = 1
	}
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = telemetry.DefaultTracer()
	}
	return &Server{
		c:      c,
		opts:   opts,
		work:   make(map[engine.Measure]engine.Stats),
		tracer: tracer,
	}
}

// Corpus returns the corpus the server mutates and queries.
func (s *Server) Corpus() *corpus.Corpus { return s.c }

// Handler returns the HTTP handler serving /query, /query/stream, /series
// and /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /query/stream", s.handleQueryStream)
	mux.HandleFunc("POST /series", s.handleSeries)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", telemetry.Handler())
	mux.HandleFunc("GET /debug/trace", s.tracer.HandleDebugTrace)
	mux.HandleFunc("POST /admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /cluster/series", s.handleClusterSeries)
	return mux
}

// measureStats returns the work of every measure's finished queries, keyed
// by name: what /stats reports, and what a stream's done record quotes.
func (s *Server) measureStats() map[string]engine.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]engine.Stats, len(s.work))
	for m, st := range s.work {
		out[m.String()] = st
	}
	return out
}

// SeriesJSON is the wire form of one uncertain series.
type SeriesJSON struct {
	// Values holds one observation per timestamp.
	Values []float64 `json:"values"`
	// Sigma optionally attaches a constant error stddev (a zero-mean
	// normal error model).
	Sigma float64 `json:"sigma,omitempty"`
	// Samples optionally attaches repeated observations per timestamp
	// (required to serve the series with MUNICH).
	Samples [][]float64 `json:"samples,omitempty"`
	// Label carries an optional class label.
	Label int `json:"label,omitempty"`
}

func (sj SeriesJSON) toCorpus() (corpus.Series, error) {
	if sj.Sigma < 0 {
		return corpus.Series{}, errors.New("sigma must be non-negative")
	}
	cs := corpus.Series{Values: sj.Values, Samples: sj.Samples, Label: sj.Label}
	if sj.Sigma > 0 {
		var d stats.Dist = stats.NewNormal(0, sj.Sigma) // boxed once: no allocation per timestamp
		cs.Errors = make([]stats.Dist, len(sj.Values))
		for i := range cs.Errors {
			cs.Errors[i] = d
		}
	}
	return cs, nil
}

// QueryRequest is the wire form of POST /query and /query/stream — the
// JSON rendering of one declarative engine.Request plus the transport
// concerns (stable-ID target resolution, per-request timeout).
type QueryRequest struct {
	// Measure is one of euclidean, uma, uema, dtw, dust, proud, munich.
	Measure string `json:"measure"`
	// Type is the query family: topk or range for the distance measures,
	// probtopk or probrange for proud/munich.
	Type string `json:"type"`
	// K is the neighbour count for topk/probtopk.
	K int `json:"k,omitempty"`
	// Eps is the distance threshold (range, probtopk, probrange).
	Eps float64 `json:"eps,omitempty"`
	// Tau is the probability threshold (probrange).
	Tau float64 `json:"tau,omitempty"`
	// ID poses a resident series (by stable corpus ID) as the query; the
	// series itself is excluded from the answer.
	ID *int `json:"id,omitempty"`
	// Series poses an ad-hoc query series instead; nothing is excluded.
	Series *SeriesJSON `json:"series,omitempty"`
	// Workers is the per-request worker budget (0 = the server default,
	// capped at the server maximum).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds this query's execution in milliseconds (0 = the
	// server's DefaultTimeout). On expiry the executor drains and the
	// request answers 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Offset drops the first Offset result entries (after the final
	// deterministic ordering).
	Offset int `json:"offset,omitempty"`
	// Limit truncates the result list after Limit entries (0 = all).
	Limit int `json:"limit,omitempty"`
}

// NeighborJSON is one topk answer entry.
type NeighborJSON struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

// MatchJSON is one probtopk answer entry.
type MatchJSON struct {
	ID   int     `json:"id"`
	Prob float64 `json:"prob"`
}

// QueryResponse is the wire form of a /query answer. IDs are stable corpus
// IDs, valid across snapshots.
type QueryResponse struct {
	Measure   string         `json:"measure"`
	Type      string         `json:"type"`
	Epoch     uint64         `json:"epoch"`
	Neighbors []NeighborJSON `json:"neighbors,omitempty"`
	IDs       []int          `json:"ids,omitempty"`
	Matches   []MatchJSON    `json:"matches,omitempty"`
	// Total is the full answer size before any offset/limit window was
	// applied, so paginating clients know when to stop.
	Total int `json:"total"`
}

// httpError carries a status code out of a handler helper.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusFor maps an error from the server to its HTTP status: explicit
// httpErrors pass through, the qerr sentinels map by qerr.Status.
func statusFor(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return qerr.Status(err)
}

// query returns the query a body carries: the body itself, or the query a
// StreamRequest wraps (it promotes this method).
func (req *QueryRequest) query() *QueryRequest { return req }

// OpenQuery is the prelude of every query endpoint, the coordinator's too. It
// decodes the body (false: it has answered 413 or 400) and returns the
// query's context — the HTTP request's, bounded by the body's timeout_ms or
// else timeout (0 = none) — carrying its trace: the caller's trace ID or a
// fresh one, under op and the query's labels, named in the response header
// and never in the body. end records the query's error on the trace, hands
// the trace to tracer and releases the context.
func OpenQuery(w http.ResponseWriter, r *http.Request, body interface{ query() *QueryRequest }, tracer *telemetry.Tracer, op string, timeout time.Duration) (ctx context.Context, end func(error), ok bool) {
	if !DecodeBody(w, r, body) {
		return nil, nil, false
	}
	req := body.query()
	ctx, cancel := withTimeout(r.Context(), *req, timeout)
	tr := tracer.StartTrace(r.Header.Get(telemetry.TraceHeader), op)
	tr.SetQuery(queryLabels(*req))
	w.Header().Set(telemetry.TraceHeader, tr.ID())
	return telemetry.WithTrace(ctx, tr), func(err error) {
		tr.Fail(err)
		tracer.Finish(tr)
		cancel()
	}, true
}

// withTimeout bounds a query's context by the request's own timeout_ms,
// else by timeout (0 = no bound).
func withTimeout(parent context.Context, req QueryRequest, timeout time.Duration) (context.Context, context.CancelFunc) {
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, timeout)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	ctx, end, ok := OpenQuery(w, r, &req, s.tracer, "query", s.opts.DefaultTimeout)
	if !ok {
		return
	}
	resp, err := s.Run(ctx, req)
	end(err)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	WriteJSON(w, resp)
}

// plan resolves a wire request into its own engine over the current
// snapshot, that snapshot, and the declarative engine request (stable IDs
// translated to snapshot positions).
func (s *Server) plan(req QueryRequest) (*engine.Engine, *corpus.Snapshot, engine.Request, error) {
	if req.TimeoutMS < 0 {
		return nil, nil, engine.Request{}, badRequest("timeout_ms = %d must be non-negative (0 = the server default)", req.TimeoutMS)
	}
	m, err := engine.ParseMeasure(req.Measure)
	if err != nil {
		return nil, nil, engine.Request{}, err
	}
	kind, err := engine.ParseKind(req.Type)
	if err != nil {
		return nil, nil, engine.Request{}, err
	}
	snap := s.c.Snapshot()
	e, err := engine.NewFromSnapshot(snap, engine.Options{Measure: m, MUNICH: s.opts.MUNICH})
	if err != nil {
		return nil, nil, engine.Request{}, fmt.Errorf("building %s engine: %w", m, err)
	}
	ereq := engine.Request{
		Measure: m,
		Kind:    kind,
		K:       req.K,
		Eps:     req.Eps,
		Tau:     req.Tau,
		Workers: s.clampWorkers(req.Workers),
		Offset:  req.Offset,
		Limit:   req.Limit,
	}
	switch {
	case req.ID != nil && req.Series != nil:
		return nil, nil, engine.Request{}, badRequest("id and series are mutually exclusive")
	case req.ID != nil:
		pos, ok := snap.PosOf(*req.ID)
		if !ok {
			return nil, nil, engine.Request{}, fmt.Errorf("%w %d", qerr.ErrNotFound, *req.ID)
		}
		ereq.Index = &pos
	case req.Series != nil:
		ereq.AdHoc = &engine.Query{
			Values:  req.Series.Values,
			Sigma:   req.Series.Sigma,
			Samples: req.Series.Samples,
		}
	default:
		return nil, nil, engine.Request{}, badRequest("the query needs an id or a series")
	}
	return e, snap, ereq, nil
}

// Run executes one query request against the current snapshot under ctx.
// It is exported so in-process callers (tests, embedding applications)
// can skip HTTP; cancellation and deadline semantics are exactly those of
// engine.Run.
func (s *Server) Run(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	return s.RunBound(ctx, req, nil, nil)
}

// start opens a query's metric window (track) and plans it under its
// trace's parse span. A query that does not plan closes the window itself;
// otherwise the caller calls done once the query has run, which adds the
// query's work (its engine's Stats) to /stats and the pruning gauges, and
// closes the window.
func (s *Server) start(ctx context.Context, req QueryRequest) (*engine.Engine, *corpus.Snapshot, engine.Request, func(error), error) {
	closeWindow := track(req)
	sp := telemetry.TraceFrom(ctx).Start("parse")
	e, snap, ereq, err := s.plan(req)
	sp.EndErr(err)
	if err != nil {
		closeWindow(err)
		return nil, nil, engine.Request{}, nil, err
	}
	m := ereq.Measure
	return e, snap, ereq, func(err error) {
		s.record(m, e.Stats())
		closeWindow(err)
	}, nil
}

// toResponse translates an engine result (snapshot positions) into the
// wire response (stable corpus IDs, normalized measure and kind names).
func toResponse(snap *corpus.Snapshot, m engine.Measure, res *engine.Result) *QueryResponse {
	resp := &QueryResponse{
		Measure: m.String(),
		Type:    res.Kind.String(),
		Epoch:   snap.Epoch(),
		Total:   res.Total,
	}
	for _, n := range res.Neighbors {
		resp.Neighbors = append(resp.Neighbors, NeighborJSON{ID: snap.IDAt(n.ID), Distance: n.Distance})
	}
	for _, pm := range res.Matches {
		resp.Matches = append(resp.Matches, MatchJSON{ID: snap.IDAt(pm.ID), Prob: pm.Prob})
	}
	if res.IDs != nil {
		resp.IDs = stableIDs(snap, res.IDs)
	}
	return resp
}

// StreamItemJSON is one incremental /query/stream record: the stable
// corpus ID of a confirmed neighbour plus its distance (topk, range) or
// match probability (probtopk); probrange items carry the ID alone.
type StreamItemJSON struct {
	ID       int      `json:"id"`
	Distance *float64 `json:"distance,omitempty"`
	Prob     *float64 `json:"prob,omitempty"`
}

// StreamDoneJSON is the final /query/stream record: a summary of the
// completed query plus the measure's cumulative engine stats, this query's
// included.
type StreamDoneJSON struct {
	Done    bool   `json:"done"`
	Measure string `json:"measure"`
	Type    string `json:"type"`
	Epoch   uint64 `json:"epoch"`
	// Total is the number of item records streamed before this one.
	Total int `json:"total"`
	// Stats is the measure's cumulative engine accounting (the same
	// counters /stats reports), rendered as its one-line summary.
	Stats string `json:"stats"`
}

// handleQueryStream serves POST /query/stream: a StreamRequest, answered as
// NDJSON — one StreamItemJSON per confirmed result (range kinds stream
// mid-scan as shards confirm matches, in nondeterministic order; top-k
// kinds stream the ranked answer as it is confirmed at the merge, from the
// cut the body seeds: StreamRequest.seed), then one StreamDoneJSON. The
// offset/limit window is a /query concern (it is defined on the final
// sorted answer, which a mid-scan stream does not have yet), so stream
// requests carrying one are rejected rather than silently unwindowed. The
// stream ends as ndjson.fail says. A coordinator's scatter leg is such a
// stream, under the coordinator's trace ID (OpenQuery adopts the request
// header's), so one ID pulls the cross-shard picture from every
// /debug/trace it touched.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req StreamRequest
	ctx, end, ok := OpenQuery(w, r, &req, s.tracer, "query_stream", s.opts.DefaultTimeout)
	if !ok {
		return
	}
	if req.Offset != 0 || req.Limit != 0 {
		err := badRequest("offset/limit do not apply to /query/stream (the stream delivers every confirmed match; use /query for pagination)")
		end(err)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	e, snap, ereq, done, err := s.start(ctx, req.QueryRequest)
	if err != nil {
		end(err)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	req.seed(&ereq)
	out := newNDJSON(w, snap, ereq.Kind)
	_, err = e.RunStream(ctx, ereq, out.item)
	done(err)
	end(err)
	if out.fail(err) {
		return
	}
	_ = out.write(StreamDoneJSON{
		Done:    true,
		Measure: ereq.Measure.String(),
		Type:    ereq.Kind.String(),
		Epoch:   snap.Epoch(),
		Total:   out.items,
		Stats:   s.measureStats()[ereq.Measure.String()].String(),
	})
}

// ndjson writes one query's NDJSON answer, a flushed record at a time: the one
// place an engine.Item becomes a wire record, and the one way a stream ends
// (fail).
type ndjson struct {
	w     http.ResponseWriter
	snap  *corpus.Snapshot
	kind  engine.Kind
	enc   *json.Encoder
	items int // StreamItemJSON records written
}

func newNDJSON(w http.ResponseWriter, snap *corpus.Snapshot, kind engine.Kind) *ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	return &ndjson{w: w, snap: snap, kind: kind, enc: json.NewEncoder(w)}
}

// write encodes one record and flushes it to the client.
func (n *ndjson) write(v interface{}) error {
	if err := n.enc.Encode(v); err != nil {
		return err
	}
	if f, ok := n.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// item is the engine's emit callback (never called concurrently with
// itself): one confirmed result as its StreamItemJSON record.
func (n *ndjson) item(it engine.Item) error {
	rec := StreamItemJSON{ID: n.snap.IDAt(it.ID)}
	switch n.kind {
	case engine.KindTopK, engine.KindRange:
		rec.Distance = &it.Distance
	case engine.KindProbTopK:
		rec.Prob = &it.Prob
	}
	if err := n.write(rec); err != nil {
		return err
	}
	n.items++
	return nil
}

// fail ends a stream that failed with err, and reports whether it did:
// before the first record the answer is a plain HTTP error, after it the
// body ends with an {"error": ...} record in place of the done record.
func (n *ndjson) fail(err error) bool {
	switch {
	case err == nil:
		return false
	case n.items == 0:
		http.Error(n.w, err.Error(), statusFor(err))
	default:
		_ = n.write(map[string]string{"error": err.Error()})
	}
	return true
}

func stableIDs(snap *corpus.Snapshot, positions []int) []int {
	out := make([]int, len(positions))
	for i, pos := range positions {
		out[i] = snap.IDAt(pos)
	}
	return out
}

func (s *Server) clampWorkers(requested int) int {
	w := requested
	if w <= 0 {
		w = s.opts.DefaultWorkers
	}
	if w > s.opts.MaxWorkers {
		w = s.opts.MaxWorkers
	}
	return w
}

// SeriesRequest is the wire form of POST /series: insertions and deletions
// applied as one atomic mutation — either everything lands in a single
// corpus epoch, or (e.g. on an unknown delete ID) nothing changes.
type SeriesRequest struct {
	Insert []SeriesJSON `json:"insert,omitempty"`
	// InsertIDs optionally pins the stable ID of each inserted series
	// (one per Insert entry, strictly increasing, at or above the corpus'
	// next unassigned ID). The cluster coordinator uses it to ingest
	// series under globally allocated IDs; plain clients leave it empty
	// and receive contiguous IDs.
	InsertIDs []int `json:"insert_ids,omitempty"`
	Delete    []int `json:"delete,omitempty"`
}

// SeriesResponse reports the outcome of a /series mutation.
type SeriesResponse struct {
	// IDs are the stable corpus IDs of the inserted series, in input
	// order.
	IDs []int `json:"ids,omitempty"`
	// Deleted is the number of removed series.
	Deleted int `json:"deleted,omitempty"`
	// Epoch is the corpus epoch after the mutation.
	Epoch uint64 `json:"epoch"`
	// Series is the resident count after the mutation.
	Series int `json:"series"`
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	var req SeriesRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	resp, err := s.Mutate(req)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	WriteJSON(w, resp)
}

// Mutate applies one ingestion/deletion request as a single atomic corpus
// mutation: on any error (including an unknown delete ID) nothing is
// changed, so clients can retry safely.
func (s *Server) Mutate(req SeriesRequest) (*SeriesResponse, error) {
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		return nil, badRequest("nothing to insert or delete")
	}
	if len(req.InsertIDs) > 0 && len(req.InsertIDs) != len(req.Insert) {
		return nil, badRequest("insert_ids has %d entries for %d inserted series", len(req.InsertIDs), len(req.Insert))
	}
	batch := make([]corpus.Series, len(req.Insert))
	for i, sj := range req.Insert {
		cs, err := sj.toCorpus()
		if err != nil {
			return nil, badRequest("series %d: %v", i, err)
		}
		batch[i] = cs
	}
	ids, err := s.c.ApplyAt(batch, req.InsertIDs, req.Delete)
	if err != nil {
		return nil, err
	}
	snap := s.c.Snapshot()
	return &SeriesResponse{
		IDs:     ids,
		Deleted: len(req.Delete),
		Epoch:   snap.Epoch(),
		Series:  snap.Len(),
	}, nil
}

// StatsResponse is the wire form of GET /stats.
type StatsResponse struct {
	// Series is the resident series count.
	Series int `json:"series"`
	// SeriesLen is the common series length.
	SeriesLen int `json:"series_len"`
	// Epoch is the current corpus epoch.
	Epoch uint64 `json:"epoch"`
	// NextID is the next unassigned stable ID: a cluster coordinator
	// recovers its ID allocator as the max over its shards.
	NextID int `json:"next_id"`
	// Measures maps measure name to its cumulative engine counters.
	Measures map[string]MeasureStatsJSON `json:"measures,omitempty"`
}

// MeasureStatsJSON is the cumulative accounting of one measure's queries:
// the full wire-stable engine.Stats counter set (inlined) plus a rendered
// summary line. Carrying engine.Stats itself is what lets a cluster
// coordinator merge shard /stats responses without drift.
type MeasureStatsJSON struct {
	engine.Stats
	Summary string `json:"summary"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.Stats())
}

// Stats assembles the /stats payload.
func (s *Server) Stats() *StatsResponse {
	snap := s.c.Snapshot()
	resp := &StatsResponse{
		Series:    snap.Len(),
		SeriesLen: snap.SeriesLen(),
		Epoch:     snap.Epoch(),
		NextID:    snap.NextID(),
		Measures:  make(map[string]MeasureStatsJSON),
	}
	for name, st := range s.measureStats() {
		resp.Measures[name] = MeasureStatsJSON{Stats: st, Summary: st.String()}
	}
	return resp
}

// HealthResponse is the wire form of GET /healthz: liveness plus the
// durability picture operators page on — current epoch, resident series,
// and (when a store is attached) how much WAL a crash right now would
// replay.
type HealthResponse struct {
	// Status is "ok" while the server can answer queries; "degraded" when
	// the attached store stopped accepting mutations or reported a
	// background failure.
	Status string `json:"status"`
	// Epoch is the current corpus epoch.
	Epoch uint64 `json:"epoch"`
	// Series is the resident series count.
	Series int `json:"series"`
	// Durable reports whether a store is attached.
	Durable bool `json:"durable"`
	// UptimeSeconds is the time since this process started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Build identifies the running binary (module version, VCS revision).
	Build telemetry.BuildJSON `json:"build"`
	// Store is the attached store's status (absent when not durable).
	Store *store.Status `json:"store,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.Health())
}

// Health assembles the /healthz payload.
func (s *Server) Health() *HealthResponse {
	snap := s.c.Snapshot()
	resp := &HealthResponse{
		Status:        "ok",
		Epoch:         snap.Epoch(),
		Series:        snap.Len(),
		UptimeSeconds: telemetry.Uptime().Seconds(),
		Build:         telemetry.Build(),
	}
	if s.opts.Store != nil {
		st := s.opts.Store.Status()
		resp.Durable = true
		resp.Store = &st
		if !st.Open || st.LastError != "" {
			resp.Status = "degraded"
		}
	}
	return resp
}

// handleCheckpoint serves POST /admin/checkpoint: it durably serializes
// the current corpus state, compacts the WAL, and answers with the fresh
// store status. 503 when the server runs without a store.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.opts.Store == nil {
		http.Error(w, "this server runs without a durable store (start it with -data)", http.StatusServiceUnavailable)
		return
	}
	if err := s.opts.Store.Checkpoint(); err != nil {
		http.Error(w, "checkpoint: "+err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, s.opts.Store.Status())
}

// MaxBodyBytes bounds the JSON body of every request the server and the
// cluster coordinator decode: no POST is buffered past it, whatever its
// size. The largest body the repository benchmark sends, a 512-series
// sampled ingest batch, is 2.08 MB; a plain one is 0.49 MB.
const MaxBodyBytes = 64 << 20

// DecodeBody decodes the JSON body of r into v, reading at most
// MaxBodyBytes. It reports whether v holds the request; when it does not,
// it has answered already: 413 naming the limit for a larger body, 400 for
// malformed JSON. A *SeriesRequest of the plain shape decodes without
// reflection (decodeSeries); every other body goes through encoding/json.
func DecodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if req, ok := v.(*SeriesRequest); ok {
		return decodeSeriesBody(w, body, req)
	}
	return answerDecode(w, json.NewDecoder(body).Decode(v))
}

// answerDecode answers a failed decode, reporting whether err is nil.
func answerDecode(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body exceeds the %d MiB limit", MaxBodyBytes>>20), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// WriteJSON answers with v as one line of compact JSON (indented, a top-k
// answer is ~1.6x the bytes and the indenting a pass of its own), encoded
// before the status line goes out: a value with no JSON form (a non-finite
// number, e.g. an overflowed distance) is a 500 with a typed error body,
// never a 200 with no bytes.
func WriteJSON(w http.ResponseWriter, v interface{}) {
	var buf bytes.Buffer
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		queryErrors.With("encode").Inc()
		w.WriteHeader(http.StatusInternalServerError)
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(map[string]string{"kind": "encode", "error": "encoding response: " + err.Error()})
	}
	_, _ = w.Write(buf.Bytes()) // the client hanging up is not the server's error
}
