// Package server exposes a corpus and its query engines over HTTP/JSON —
// the serving tier that turns the batch reproduction into a system:
//
//	POST /query         similarity queries (topk, range, probtopk,
//	                    probrange) across every measure, against resident
//	                    series (by stable corpus ID) or ad-hoc series
//	                    shipped in the request;
//	POST /query/stream  the same queries with incremental NDJSON results:
//	                    one record per confirmed neighbour, then a final
//	                    stats record;
//	POST /series        ingestion and deletion;
//	GET  /stats         corpus and per-measure engine accounting.
//
// Every query parses straight into one declarative engine.Request and
// executes through Engine.Run under the HTTP request's context: a client
// that hangs up cancels its query (the executor drains promptly), and a
// per-request timeout_ms field bounds the work server-side. Failures are
// typed — the engine returns qerr sentinels, which map mechanically to
// HTTP status codes (400 for validation, 404 for unknown IDs, 504 for
// expired deadlines).
//
// Requests execute on the engine's work-stealing executor with a
// per-request worker budget, against whatever corpus snapshot is current
// when the request arrives. Snapshot isolation does the heavy lifting for
// concurrency: a query keeps its snapshot for its whole execution, so
// in-flight queries are never perturbed by concurrent ingestion, and
// writers never wait for readers.
//
// Engines are cached per measure and rebuilt only when the corpus epoch
// moves on — and rebuilding costs the same few allocations whatever the
// corpus size, because the per-series artifacts (envelopes, filtered
// vectors, suffix energies, filter columns, phi tables) and the geometry
// they were built under (band, filter window, segment count: the corpus'
// corpus.Config, which the server does not second-guess) live in the corpus
// arenas, which snapshots share. Work counters survive rebuilds:
// /stats reports the cumulative accounting since the server started.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
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
	// MUNICH configures the probability estimator of MUNICH engines.
	MUNICH munich.Options
	// NoIndex forces every engine onto the linear scan path, ignoring the
	// corpus' sketch index (debugging / apples-to-apples benchmarking).
	NoIndex bool
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

	mu      sync.Mutex
	engines map[engine.Measure]*measureEngines

	// bounds tracks the shared pruning cuts of running cluster queries,
	// keyed by the coordinator's bound token (see cluster.go).
	bounds boundRegistry

	// tracer collects finished query traces for /debug/trace and the
	// slow-query log.
	tracer *telemetry.Tracer
}

// measureEngines tracks one measure's engine across corpus epochs. The
// previous engine is kept alive (not just its counters) until the next
// rebuild so that requests still running on it when it was retired keep
// accruing into /stats; only the engine before that is folded into the
// frozen baseline.
type measureEngines struct {
	epoch    uint64
	cur      *engine.Engine
	prev     *engine.Engine
	baseline engine.Stats
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
		c:       c,
		opts:    opts,
		engines: make(map[engine.Measure]*measureEngines),
		tracer:  tracer,
	}
}

// Corpus returns the corpus the server mutates and queries.
func (s *Server) Corpus() *corpus.Corpus { return s.c }

// Handler returns the HTTP handler serving /query, /query/stream, /series
// and /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/query/stream", s.handleQueryStream)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", telemetry.Handler())
	mux.HandleFunc("/debug/trace", s.tracer.HandleDebugTrace)
	mux.HandleFunc("/admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/cluster/query", s.handleClusterQuery)
	mux.HandleFunc("/cluster/bound", s.handleClusterBound)
	mux.HandleFunc("/cluster/series", s.handleClusterSeries)
	mux.HandleFunc("/cluster/info", s.handleClusterInfo)
	return mux
}

// engineFor returns an engine serving the measure over the current corpus
// snapshot, rebuilding the cached one only when the corpus moved past its
// epoch. The snapshot is loaded under the lock so a request that read an
// older snapshot before blocking can never evict a fresher engine.
func (s *Server) engineFor(m engine.Measure) (*engine.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.c.Snapshot()
	me := s.engines[m]
	if me == nil {
		me = &measureEngines{}
		s.engines[m] = me
	}
	if me.cur != nil && me.epoch >= snap.Epoch() {
		return me.cur, nil
	}
	e, err := engine.NewFromSnapshot(snap, engine.Options{
		Measure: m,
		MUNICH:  s.opts.MUNICH,
		NoIndex: s.opts.NoIndex,
	})
	if err != nil {
		return nil, err
	}
	if me.prev != nil {
		me.baseline = me.baseline.Merge(me.prev.Stats())
	}
	me.prev = me.cur
	me.cur = e
	me.epoch = snap.Epoch()
	return e, nil
}

// cumulative folds one measure's accounting: the frozen baseline plus the
// live counters of the current and most recently retired engines.
func (me *measureEngines) cumulative() engine.Stats {
	st := me.baseline
	if me.prev != nil {
		st = st.Merge(me.prev.Stats())
	}
	if me.cur != nil {
		st = st.Merge(me.cur.Stats())
	}
	return st
}

// measureStats returns the cumulative counters for every measure.
func (s *Server) measureStats() map[string]engine.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]engine.Stats)
	for m, me := range s.engines {
		out[m.String()] = me.cumulative()
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
		d := stats.NewNormal(0, sj.Sigma)
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

// statusFor maps an error from the query path to its HTTP status: the
// qerr sentinels carry the classification (validation 400, expired
// deadline 504, client-side cancellation 499 — the nginx convention, the
// client is gone anyway), and explicit httpErrors (404 for unknown IDs)
// pass through.
func statusFor(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case qerr.IsCancellation(err):
		return 499
	default:
		return http.StatusBadRequest
	}
}

// StatusFor is the exported form of statusFor: the cluster coordinator
// reuses the server's error-to-status mapping for its own handler, so a
// shard-side 404 or 400 surfaces identically through either tier.
func StatusFor(err error) int { return statusFor(err) }

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	// r.Context() is cancelled when the client hangs up, so a dead
	// connection stops its query; timeout_ms adds the server-side bound.
	ctx, cancel := s.queryContext(r.Context(), req)
	defer cancel()
	// The trace ID travels in a response header, never the JSON body — the
	// /query answer stays bit-identical whether or not anyone is tracing.
	tr := s.tracer.StartTrace(r.Header.Get(telemetry.TraceHeader), "query")
	tr.SetQuery(queryLabels(req))
	w.Header().Set(telemetry.TraceHeader, tr.ID())
	resp, err := s.Run(telemetry.WithTrace(ctx, tr), req)
	tr.Fail(err)
	s.tracer.Finish(tr)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	writeJSON(w, resp)
}

// queryContext derives the execution context of one query from the
// transport context: the request's own timeout_ms first, the server
// default otherwise.
func (s *Server) queryContext(parent context.Context, req QueryRequest) (context.Context, context.CancelFunc) {
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, timeout)
}

// plan resolves a wire request into the engine serving its measure, the
// snapshot the answer is against, and the declarative engine request
// (stable IDs translated to snapshot positions).
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
	e, err := s.engineFor(m)
	if err != nil {
		return nil, nil, engine.Request{}, fmt.Errorf("building %s engine: %w", m, err)
	}
	snap := e.Snapshot()
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
			return nil, nil, engine.Request{}, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("no series with ID %d", *req.ID)}
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
func (s *Server) Run(ctx context.Context, req QueryRequest) (resp *QueryResponse, err error) {
	done := track(req)
	defer func() { done(err) }()
	sp := telemetry.TraceFrom(ctx).Start("parse")
	e, snap, ereq, err := s.plan(req)
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(ctx, ereq)
	if err != nil {
		return nil, err
	}
	return toResponse(snap, ereq.Measure, res), nil
}

// Query executes one query request with no cancellation — the legacy
// in-process surface, equivalent to Run with a background context.
func (s *Server) Query(req QueryRequest) (*QueryResponse, error) {
	return s.Run(context.Background(), req)
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
// completed query plus the measure's cumulative engine stats.
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

// handleQueryStream serves POST /query/stream: the same request shape as
// /query, answered as NDJSON — one StreamItemJSON per confirmed result
// (range kinds stream mid-scan as shards confirm matches, in
// nondeterministic order; top-k kinds stream the ranked answer as it is
// confirmed at the merge), then one StreamDoneJSON. The offset/limit
// window is a /query concern (it is defined on the final sorted answer,
// which a mid-scan stream does not have yet), so stream requests carrying
// one are rejected rather than silently unwindowed. Errors before the
// first record are plain HTTP errors; a failure mid-stream terminates the
// body with an {"error": ...} record instead of the final done record.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Offset != 0 || req.Limit != 0 {
		http.Error(w, "offset/limit do not apply to /query/stream (the stream delivers every confirmed match; use /query for pagination)", http.StatusBadRequest)
		return
	}
	ctx, cancel := s.queryContext(r.Context(), req)
	defer cancel()
	tr := s.tracer.StartTrace(r.Header.Get(telemetry.TraceHeader), "query_stream")
	tr.SetQuery(queryLabels(req))
	w.Header().Set(telemetry.TraceHeader, tr.ID())
	ctx = telemetry.WithTrace(ctx, tr)
	done := track(req)
	finish := func(err error) {
		done(err)
		tr.Fail(err)
		s.tracer.Finish(tr)
	}
	sp := telemetry.TraceFrom(ctx).Start("parse")
	e, snap, ereq, err := s.plan(req)
	sp.EndErr(err)
	if err != nil {
		finish(err)
		http.Error(w, err.Error(), statusFor(err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	kind := ereq.Kind
	streamed := 0
	emit := func(it engine.Item) error {
		rec := StreamItemJSON{ID: snap.IDAt(it.ID)}
		switch kind {
		case engine.KindTopK, engine.KindRange:
			d := it.Distance
			rec.Distance = &d
		case engine.KindProbTopK:
			p := it.Prob
			rec.Prob = &p
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		streamed++
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if _, err := e.RunStream(ctx, ereq, emit); err != nil {
		finish(err)
		if streamed == 0 {
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		_ = enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	finish(nil)
	_ = enc.Encode(StreamDoneJSON{
		Done:    true,
		Measure: ereq.Measure.String(),
		Type:    kind.String(),
		Epoch:   snap.Epoch(),
		Total:   streamed,
		Stats:   s.statsFor(ereq.Measure).String(),
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// statsFor returns one measure's cumulative counters — the same
// aggregation /stats reports, so a stream's done record agrees with
// /stats even across engine rebuilds.
func (s *Server) statsFor(m engine.Measure) engine.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	me := s.engines[m]
	if me == nil {
		return engine.Stats{}
	}
	return me.cumulative()
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
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SeriesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.Mutate(req)
	if err != nil {
		status := http.StatusBadRequest
		var he *httpError
		if errors.As(err, &he) {
			status = he.status
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, resp)
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
		return nil, &httpError{status: statusForApplyError(err), msg: err.Error()}
	}
	snap := s.c.Snapshot()
	return &SeriesResponse{
		IDs:     ids,
		Deleted: len(req.Delete),
		Epoch:   snap.Epoch(),
		Series:  snap.Len(),
	}, nil
}

// statusForApplyError maps a corpus mutation error to an HTTP status:
// unknown-ID deletions are 404, everything else (validation) is 400.
func statusForApplyError(err error) int {
	if strings.Contains(err.Error(), "no series with ID") {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// StatsResponse is the wire form of GET /stats.
type StatsResponse struct {
	// Series is the resident series count.
	Series int `json:"series"`
	// SeriesLen is the common series length.
	SeriesLen int `json:"series_len"`
	// Epoch is the current corpus epoch.
	Epoch uint64 `json:"epoch"`
	// Measures maps measure name to its cumulative engine counters.
	Measures map[string]MeasureStatsJSON `json:"measures,omitempty"`
}

// MeasureStatsJSON is the cumulative accounting of one measure's engines:
// the full wire-stable engine.Stats counter set (inlined) plus a rendered
// summary line. Carrying engine.Stats itself is what lets a cluster
// coordinator merge shard /stats responses without drift.
type MeasureStatsJSON struct {
	engine.Stats
	Summary string `json:"summary"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.Stats())
}

// Stats assembles the /stats payload.
func (s *Server) Stats() *StatsResponse {
	snap := s.c.Snapshot()
	resp := &StatsResponse{
		Series:    snap.Len(),
		SeriesLen: snap.SeriesLen(),
		Epoch:     snap.Epoch(),
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
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.Health())
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
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.opts.Store == nil {
		http.Error(w, "this server runs without a durable store (start it with -data)", http.StatusServiceUnavailable)
		return
	}
	if err := s.opts.Store.Checkpoint(); err != nil {
		http.Error(w, "checkpoint: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, s.opts.Store.Status())
}

// writeJSON answers with v, encoded before the status line goes out: a value
// with no JSON form (a non-finite number, e.g. an overflowed distance) is a
// 500 with a typed error body, never a 200 with no bytes.
func writeJSON(w http.ResponseWriter, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	w.Header().Set("Content-Type", "application/json")
	if err := enc.Encode(v); err != nil {
		queryErrors.With("encode").Inc()
		w.WriteHeader(http.StatusInternalServerError)
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(map[string]string{"kind": "encode", "error": "encoding response: " + err.Error()})
	}
	_, _ = w.Write(buf.Bytes()) // the client hanging up is not the server's error
}
