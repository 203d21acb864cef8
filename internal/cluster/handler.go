package cluster

import (
	"errors"
	"net/http"

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
	mux.HandleFunc("POST /query", c.handleQuery)
	mux.HandleFunc("POST /series", c.handleSeries)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.Handle("GET /metrics", telemetry.Handler())
	mux.HandleFunc("GET /debug/trace", c.tracer.HandleDebugTrace)
	return mux
}

// statusFor maps a coordinator error to its HTTP status: a shard's own
// refusal passes its status through verbatim, and everything else maps by
// qerr.Status (all shards down 502, all shards slow 504, and the single
// node's taxonomy).
func statusFor(err error) int {
	var se *ShardStatusError
	if errors.As(err, &se) {
		return se.Status
	}
	return qerr.Status(err)
}

// handleQuery serves POST /query. The coordinator mints the query's trace ID
// (or adopts the caller's) and hands it to every shard leg in the trace
// header. timeout_ms bounds the whole scatter-gather; the shards run without
// a deadline of their own (Query strips it) under this context.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	ctx, end, ok := server.OpenQuery(w, r, &req, c.tracer, "cluster_scatter", 0)
	if !ok {
		return
	}
	resp, err := c.Query(ctx, req)
	end(err)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	server.WriteJSON(w, resp)
}

func (c *Coordinator) handleSeries(w http.ResponseWriter, r *http.Request) {
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
	resp, err := c.Stats(r.Context())
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	server.WriteJSON(w, resp)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, c.Health(r.Context()))
}
