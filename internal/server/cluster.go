package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"uncertts/internal/engine"
	"uncertts/internal/qerr"
)

// The shard-side cluster surface. A server doubles as one shard of a
// scatter-gather cluster (see internal/cluster): the coordinator posts a
// query to every shard's /query/stream as a StreamRequest and reads the
// candidates back over NDJSON. One private endpoint carries the rest:
//
//	GET  /cluster/series fetches a resident series in its wire form, so
//	                     the coordinator can forward an ID-targeted query
//	                     to the shards that do not hold the series.
//
// A shard's geometry (epoch, series, length, next unassigned ID) is its
// /stats. In-process shards skip HTTP entirely: cluster.LocalShard calls
// RunBound with a shared engine.Bound, and propagation is the atomic itself.

// StreamRequest is the wire form of POST /query/stream: a plain query plus
// an optional seed for a top-k stream's cut. A seed must be a proven bound
// on the k-th key of the answer it is meant for: a tighter one prunes true
// neighbours from this stream's answer. A client leaves it out, and so, in
// practice, does a coordinator's scatter leg (cluster.HTTPShard says when
// it would not).
type StreamRequest struct {
	QueryRequest
	// BoundSq seeds the top-k cut (squared-distance space, already
	// ulpUp-inflated) before the scan starts: a proven upper bound on the
	// global k-th best squared distance.
	BoundSq *float64 `json:"bound_sq,omitempty"`
	// ProbBound seeds the probtopk cut: a proven lower bound on the global
	// k-th best match probability.
	ProbBound *float64 `json:"prob_bound,omitempty"`
}

// seed hands the body's seed to the stream's engine request as the cut it
// starts from. A range kind, or a top-k body without a seed, keeps the
// engine's own cut.
func (r *StreamRequest) seed(ereq *engine.Request) {
	switch {
	case ereq.Kind == engine.KindTopK && r.BoundSq != nil:
		ereq.Bound = engine.NewBound()
		ereq.Bound.LowerSquared(*r.BoundSq)
	case ereq.Kind == engine.KindProbTopK && r.ProbBound != nil:
		ereq.ProbBound = engine.NewProbBound()
		ereq.ProbBound.Raise(*r.ProbBound)
	}
}

// ClusterSeriesJSON is the wire form of GET /cluster/series: a resident
// series rendered back into its ingestion shape, faithful for every
// series that entered through the JSON surface (values + constant sigma +
// samples — the only shapes cluster ingestion produces).
type ClusterSeriesJSON struct {
	ID     int        `json:"id"`
	Series SeriesJSON `json:"series"`
}

// RunBound is Run with an externally shared pruning cut: the top-k kinds
// coordinate through bnd/pbnd (when non-nil) instead of a private bound.
// In-process cluster shards answer through it — every shard's engine
// lowers and reads the same atomic, so propagation needs no transport.
func (s *Server) RunBound(ctx context.Context, req QueryRequest, bnd *engine.Bound, pbnd *engine.ProbBound) (*QueryResponse, error) {
	e, snap, ereq, done, err := s.start(ctx, req)
	if err != nil {
		return nil, err
	}
	ereq.Bound, ereq.ProbBound = bnd, pbnd
	res, err := e.Run(ctx, ereq)
	done(err)
	if err != nil {
		return nil, err
	}
	return toResponse(snap, ereq.Measure, res), nil
}

// FetchSeries renders the resident series with the given stable ID back
// into its wire ingestion shape. It errors when the series carries a
// per-timestamp error model a constant sigma cannot express — impossible
// for series ingested through the JSON surface, which is all a cluster
// shard ever holds.
func (s *Server) FetchSeries(id int) (*ClusterSeriesJSON, error) {
	snap := s.c.Snapshot()
	pos, ok := snap.PosOf(id)
	if !ok {
		return nil, fmt.Errorf("%w %d", qerr.ErrNotFound, id)
	}
	ent := snap.Entry(pos)
	sj := SeriesJSON{Values: ent.PDF.Observations, Label: ent.PDF.Label}
	if ent.Samples != nil {
		sj.Samples = ent.Samples.Samples
	}
	if ent.OwnErrors {
		sigma := math.Sqrt(ent.PDF.Errors[0].Variance())
		for _, d := range ent.PDF.Errors {
			if math.Sqrt(d.Variance()) != sigma { //lint:allow floatcmp exact representability check: forwarding is only faithful for a truly constant sigma
				return nil, &httpError{
					status: http.StatusUnprocessableEntity,
					msg:    fmt.Sprintf("series %d carries a non-constant error model and cannot be forwarded as a wire series", id),
				}
			}
		}
		sj.Sigma = sigma
	}
	return &ClusterSeriesJSON{ID: id, Series: sj}, nil
}

// handleClusterSeries serves GET /cluster/series?id=N.
func (s *Server) handleClusterSeries(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		http.Error(w, "id must be an integer", http.StatusBadRequest)
		return
	}
	rec, err := s.FetchSeries(id)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	WriteJSON(w, rec)
}
