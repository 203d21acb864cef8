package cluster

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"uncertts/internal/engine"
	"uncertts/internal/qerr"
	"uncertts/internal/server"
	"uncertts/internal/telemetry"
)

// The coordinator's HTTP surface mirrors the single-node server's —
// /query, /series, /stats, /healthz with the same request shapes — so
// clients scale from one node to a cluster by repointing their base URL.
// /query answers a cluster Response (the single-node QueryResponse plus
// the degraded flag and per-shard error detail).

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/series", c.handleSeries)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.Handle("/metrics", telemetry.Handler())
	mux.HandleFunc("/debug/trace", c.tracer.HandleDebugTrace)
	return mux
}

// statusFor maps a coordinator error to its HTTP status: all-shards-down
// is 502 Bad Gateway, an all-shards-slow query is 504 Gateway Timeout, a
// shard's own refusal passes its status through verbatim, and everything
// else follows the single-node mapping.
func statusFor(err error) int {
	var se *ShardStatusError
	switch {
	case errors.As(err, &se):
		return se.Status
	case errors.Is(err, qerr.ErrShardUnreachable):
		return http.StatusBadGateway
	case errors.Is(err, qerr.ErrShardTimeout):
		return http.StatusGatewayTimeout
	default:
		return server.StatusFor(err)
	}
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req server.QueryRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.TimeoutMS < 0 {
		http.Error(w, "timeout_ms must be non-negative", http.StatusBadRequest)
		return
	}
	// timeout_ms bounds the whole scatter-gather here; shards run without
	// their own deadline (Query strips it) under this context.
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	defer cancel()
	// The coordinator mints the query's trace ID (or adopts the caller's)
	// and hands it to every shard leg via the trace header; the ID travels
	// back in the response header, never the JSON body.
	tr := c.tracer.StartTrace(r.Header.Get(telemetry.TraceHeader), "cluster_scatter")
	kname, mname := "invalid", "invalid"
	if k, err := engine.ParseKind(req.Type); err == nil {
		kname = k.String()
	}
	if m, err := engine.ParseMeasure(req.Measure); err == nil {
		mname = strings.ToLower(m.String())
	}
	tr.SetQuery(kname, mname)
	w.Header().Set(telemetry.TraceHeader, tr.ID())
	resp, err := c.Query(telemetry.WithTrace(ctx, tr), req)
	if err != nil {
		tr.Fail(err)
		c.tracer.Finish(tr)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	c.tracer.Finish(tr)
	server.WriteJSON(w, resp)
}

func (c *Coordinator) handleSeries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req server.SeriesRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	resp, err := c.Mutate(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	server.WriteJSON(w, resp)
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	resp, err := c.Stats(r.Context())
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	server.WriteJSON(w, resp)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	server.WriteJSON(w, c.Health(r.Context()))
}
